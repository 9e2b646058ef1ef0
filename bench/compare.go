package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json -check-against needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is what comparing one metric of two result files comes to.
type verdict string

const (
	same       verdict = "ok"
	improved   verdict = "improved"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "unresolved"
)

// judge compares a metric's current median with its previous one. worse is
// the relative change in the direction that counts as worse; spread is the
// larger of the two runs' own quartile spreads. A change counts only once
// it clears the spread: a worsening past the bound but inside the spread,
// or any result whose spread is wider than the bound, is unresolved — it
// can be called neither a regression nor unchanged.
func judge(prev, cur summary, better string, bound float64) (verdict, float64) {
	worse := (cur.Median - prev.Median) / math.Abs(prev.Median)
	if better == "higher" {
		worse = -worse
	}
	spread := math.Max(prev.Spread, cur.Spread)
	switch {
	case worse > bound && worse > spread:
		return regressed, worse
	case worse > bound || spread > bound:
		return unresolved, worse
	case -worse > spread:
		return improved, worse
	}
	return same, worse
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// baseline is what -check-against compares a run with: a previous result
// file and the bounds of BENCHMARK.json. It is loaded before the run, which
// overwrites the default result path.
type baseline struct {
	path string
	prev result
	spec benchSpec
}

func loadBaseline(specPath, prevPath string) (*baseline, error) {
	b := &baseline{path: prevPath}
	if err := loadJSON(prevPath, &b.prev); err != nil {
		return nil, err
	}
	if err := loadJSON(specPath, &b.spec); err != nil {
		return nil, err
	}
	return b, nil
}

// check compares cur with the baseline, metric by metric, and reports
// whether nothing regressed. Output digests and failed_share must match
// exactly: both are pure functions of the seed.
func (b *baseline) check(cur *result, w io.Writer) (bool, error) {
	prev, spec, prevPath := b.prev, b.spec, b.path
	if prev.Meta.Seed != cur.Meta.Seed || prev.Meta.Scale != cur.Meta.Scale {
		return false, fmt.Errorf("%s was measured at seed %d scale %s, this run at seed %d scale %s",
			prevPath, prev.Meta.Seed, prev.Meta.Scale, cur.Meta.Seed, cur.Meta.Scale)
	}
	byName := map[string]workloadResult{}
	for _, wr := range prev.Workloads {
		byName[wr.Name] = wr
	}
	ok := true
	fmt.Fprintf(w, "\ncompared with %s:\n", prevPath)
	for _, wr := range cur.Workloads {
		pw, found := byName[wr.Name]
		if !found {
			continue
		}
		fmt.Fprintf(w, "%s\n", wr.Name)
		if p, c := fmt.Sprint(pw.OutputDigests), fmt.Sprint(wr.OutputDigests); p != c {
			ok = false
			fmt.Fprintf(w, "  %-20s CHANGED %s -> %s\n", "output_digests", p, c)
		}
		if p, c := pw.PerLayer["failed_share"], wr.PerLayer["failed_share"]; pw.PerLayer != nil && wr.PerLayer != nil && p.Value != c.Value {
			ok = false
			fmt.Fprintf(w, "  %-20s CHANGED %g -> %g\n", "failed_share", p.Value, c.Value)
		}
		for _, s := range spec.EndToEnd {
			p, c := pw.EndToEnd[s.Name], wr.EndToEnd[s.Name]
			if p.Summary == nil || c.Summary == nil {
				continue
			}
			v, worse := judge(*p.Summary, *c.Summary, s.Better, s.Bound)
			if v == regressed {
				ok = false
			}
			fmt.Fprintf(w, "  %-20s %-10s %12.4f -> %12.4f %s  worse by %+.1f%% (bound %.0f%%, spread %.1f%%)\n",
				s.Name, v, p.Summary.Median, c.Summary.Median, c.Unit, 100*worse, 100*s.Bound,
				100*math.Max(p.Summary.Spread, c.Summary.Spread))
		}
	}
	return ok, nil
}
