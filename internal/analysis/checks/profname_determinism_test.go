package checks

import (
	"strings"
	"testing"

	"webtextie/internal/analysis"
)

// TestProfNameReportDeterminism runs profname over its fixture twice and
// demands byte-identical reports: no map order leaks into the findings.
func TestProfNameReportDeterminism(t *testing.T) {
	render := func() string {
		t.Helper()
		pkg := loadFixture(t, "profname")
		var b strings.Builder
		for _, d := range analysis.Run([]*analysis.Package{pkg}, All(), []*analysis.Analyzer{ProfName}) {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("profname reports diverge across fresh runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "profname:") {
		t.Fatalf("expected profname findings, got:\n%s", a)
	}
}
