package dict

import (
	"reflect"
	"slices"
	"testing"
)

// TestBuildTwoRunIdentity: two builds from the same surface list must
// produce identical automata — the same byte classes, transition table,
// output chains and canonical table, the same build stats, and the same
// matches. Guards the construction, whose classes and BFS run in byte
// order.
func TestBuildTwoRunIdentity(t *testing.T) {
	surfaces := []string{
		"p53", "BRCA1", "insulin", "insulin-like growth factor",
		"growth factor", "kinase", "map kinase", "mapk",
	}
	a := Build("genes", surfaces, DefaultOptions())
	b := Build("genes", surfaces, DefaultOptions())

	if a.k != b.k || a.class != b.class {
		t.Errorf("byte classes differ across runs: %d %v vs %d %v", a.k, a.class, b.k, b.class)
	}
	for _, col := range []struct {
		name string
		a, b []int32
	}{
		{"next", a.next, b.next}, {"first", a.first, b.first},
		{"plen", a.plen, b.plen}, {"link", a.link, b.link},
	} {
		if !slices.Equal(col.a, col.b) {
			t.Errorf("%s differs across runs:\n  %v\n  %v", col.name, col.a, col.b)
		}
	}
	if !slices.Equal(a.canon, b.canon) {
		t.Errorf("canonical table differs across runs: %v vs %v", a.canon, b.canon)
	}

	sa, sb := a.Stats(), b.Stats()
	sa.BuildTime, sb.BuildTime = 0, 0 // wall clock — the one sanctioned difference
	if sa != sb {
		t.Errorf("build stats differ across runs: %+v vs %+v", sa, sb)
	}

	text := "The insulin-like growth factor pathway activates MAP kinase near p53."
	if ma, mb := a.Find(text), b.Find(text); !reflect.DeepEqual(ma, mb) {
		t.Errorf("matches differ across runs:\n  %v\n  %v", ma, mb)
	}
}
