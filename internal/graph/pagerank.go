// Package graph provides the link-graph analytics of §4.1: PageRank over
// the crawled LinkDB aggregated to host ("domain") level, producing the
// paper's Table 2 (top-30 domains by page rank), plus out-link locality
// statistics supporting the "biomedical sites are only weakly linked"
// observation (§2.2).
package graph

import (
	"math"
	"sort"

	"webtextie/internal/crawldb"
	"webtextie/internal/synthweb"
)

// HostGraph is a directed multigraph between hosts.
type HostGraph struct {
	// Nodes is the sorted list of host names.
	Nodes []string
	index map[string]int
	// out[i] lists target node indexes (with multiplicity).
	out [][]int
}

// FromLinkDB aggregates a page-level LinkDB to host level. Self-loops
// (intra-host links) are dropped: PageRank over domains concerns the
// inter-site endorsement structure.
func FromLinkDB(ldb *crawldb.LinkDB) *HostGraph {
	g := &HostGraph{index: map[string]int{}}
	node := func(h string) int {
		if i, ok := g.index[h]; ok {
			return i
		}
		i := len(g.Nodes)
		g.index[h] = i
		g.Nodes = append(g.Nodes, h)
		g.out = append(g.out, nil)
		return i
	}
	ldb.ForEach(func(src string, targets []string) {
		sh, _, err := synthweb.SplitURL(src)
		if err != nil {
			return
		}
		si := node(sh)
		for _, t := range targets {
			th, _, err := synthweb.SplitURL(t)
			if err != nil || th == sh {
				continue
			}
			g.out[si] = append(g.out[si], node(th))
		}
	})
	return g
}

// PageRank computes the stationary distribution with damping factor d,
// iterating until the L1 change drops below tol or maxIter is reached.
// Dangling nodes distribute their mass uniformly (the standard fix).
func (g *HostGraph) PageRank(d float64, maxIter int, tol float64) map[string]float64 {
	n := len(g.Nodes)
	if n == 0 {
		return map[string]float64{}
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		base := (1 - d) / float64(n)
		for i := range next {
			next[i] = base
		}
		var dangling float64
		for i, outs := range g.out {
			if len(outs) == 0 {
				dangling += rank[i]
				continue
			}
			share := d * rank[i] / float64(len(outs))
			for _, t := range outs {
				next[t] += share
			}
		}
		if dangling > 0 {
			spread := d * dangling / float64(n)
			for i := range next {
				next[i] += spread
			}
		}
		var delta float64
		for i := range rank {
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < tol {
			break
		}
	}
	out := make(map[string]float64, n)
	for i, h := range g.Nodes {
		out[h] = rank[i]
	}
	return out
}

// Ranked is one host with its PageRank score.
type Ranked struct {
	Host string
	Rank float64
}

// TopHosts returns the k highest-ranked hosts (ties broken by name).
func TopHosts(ranks map[string]float64, k int) []Ranked {
	all := make([]Ranked, 0, len(ranks))
	for h, r := range ranks {
		all = append(all, Ranked{h, r})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Rank != all[j].Rank {
			return all[i].Rank > all[j].Rank
		}
		return all[i].Host < all[j].Host
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// LocalityStats summarizes out-link locality over a page-level LinkDB.
type LocalityStats struct {
	// IntraHost / CrossHost count links staying on vs leaving their host.
	IntraHost, CrossHost int
}

// IntraShare returns the fraction of links that are intra-host.
func (s LocalityStats) IntraShare() float64 {
	total := s.IntraHost + s.CrossHost
	if total == 0 {
		return 0
	}
	return float64(s.IntraHost) / float64(total)
}

// Locality computes link-locality statistics from a LinkDB.
func Locality(ldb *crawldb.LinkDB) LocalityStats {
	var s LocalityStats
	ldb.ForEach(func(src string, targets []string) {
		sh, _, err := synthweb.SplitURL(src)
		if err != nil {
			return
		}
		for _, t := range targets {
			th, _, err := synthweb.SplitURL(t)
			if err != nil {
				continue
			}
			if th == sh {
				s.IntraHost++
			} else {
				s.CrossHost++
			}
		}
	})
	return s
}
