// Package cluster simulates the paper's evaluation hardware: a 28-node
// cluster, 6-core Intel Xeon E5-2620 and 24 GB RAM per node (maximum DoP
// 168), 1 TB disk per node, HDFS with replication factor 3, and a 1 Gb
// interconnect (§4.2). The simulator is deterministic virtual-time
// modelling, not wall-clock measurement: it reproduces the *mechanisms*
// behind Figs 4 and 5 and the §4.2 war story —
//
//   - per-worker startup cost (dictionary loads ≈ 20 minutes) putting a
//     hard floor under scale-out curves;
//   - per-worker memory footprints capping the feasible DoP
//     (gene dictionaries need up to 20 GB; nodes have 24 GB → one worker
//     per node → DoP ≤ 28 for the entity flow);
//   - annotation-inflated intermediate data (1.6 TB derived from 1 TB raw)
//     over-stressing the 1 Gb network through HDFS replication;
//   - skew from heavy-tailed document lengths damping speedup.
//
// Cost constants are supplied by the caller, normally measured from the
// real operator implementations (see internal/core), then extrapolated.
package cluster

import (
	"fmt"
	"math"
)

// Config describes the simulated hardware.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// CoresPerNode bounds workers per node by CPU.
	CoresPerNode int
	// RAMPerNodeGB bounds workers per node by memory.
	RAMPerNodeGB float64
	// NetworkGbps is the per-node link bandwidth.
	NetworkGbps float64
	// ReplicationFactor is the HDFS write amplification.
	ReplicationFactor int
}

// PaperCluster returns the §4.2 evaluation cluster.
func PaperCluster() Config {
	return Config{
		Nodes:             28,
		CoresPerNode:      6,
		RAMPerNodeGB:      24,
		NetworkGbps:       1,
		ReplicationFactor: 3,
	}
}

// FlowProfile is the cost signature of one data flow, normally derived
// from a dataflow.Plan via Profile().
type FlowProfile struct {
	// Name labels the flow in reports.
	Name string
	// PerKBms is virtual CPU milliseconds per KB of input per worker.
	PerKBms float64
	// StartupMs is per-worker initialization (dictionary builds).
	StartupMs float64
	// MemPerWorkerGB is the per-worker resident footprint.
	MemPerWorkerGB float64
	// OutputFactor is intermediate+output bytes per input byte.
	OutputFactor float64
	// Skew in [0, 1] dampens speedup for straggler-prone inputs
	// (heavy-tailed document lengths need load balancing, §4.3.1).
	Skew float64
	// LibraryConflict marks flows that cannot share a JVM/class-loader
	// with the rest of the pipeline (the OpenNLP 1.4-vs-1.5 clash, §4.2).
	LibraryConflict bool
}

// Result is one simulated run.
type Result struct {
	// Feasible reports whether the run can execute at all.
	Feasible bool
	// Reason explains infeasibility.
	Reason string
	// TotalSec is the simulated end-to-end time.
	TotalSec float64
	// ComputeSec / StartupSec / NetworkSec decompose it.
	ComputeSec, StartupSec, NetworkSec float64
	// WorkersPerNode and NodesUsed describe the placement.
	WorkersPerNode, NodesUsed int
	// NetworkBound marks runs dominated by the interconnect — the regime
	// that produced "unpredictable network delays which in turn led to
	// time-out induced crashes" (§4.2).
	NetworkBound bool
}

// WorkersPerNode returns how many workers of this flow fit on one node.
func (c Config) WorkersPerNode(fp FlowProfile) int {
	byCPU := c.CoresPerNode
	if fp.MemPerWorkerGB <= 0 {
		return byCPU
	}
	byMem := int(c.RAMPerNodeGB / fp.MemPerWorkerGB)
	if byMem < byCPU {
		return byMem
	}
	return byCPU
}

// FeasibleDoP returns the largest executable DoP for a flow (0 if the flow
// cannot run at all: per-worker memory exceeds node RAM).
func (c Config) FeasibleDoP(fp FlowProfile) int {
	wpn := c.WorkersPerNode(fp)
	return wpn * c.Nodes
}

// Simulate runs the virtual-time model for one flow over inputGB at the
// requested DoP.
func (c Config) Simulate(fp FlowProfile, inputGB float64, dop int) Result {
	if dop < 1 {
		dop = 1
	}
	wpn := c.WorkersPerNode(fp)
	if wpn == 0 {
		return Result{Feasible: false,
			Reason: fmt.Sprintf("per-worker memory %.1f GB exceeds node RAM %.1f GB",
				fp.MemPerWorkerGB, c.RAMPerNodeGB)}
	}
	maxDoP := wpn * c.Nodes
	if dop > maxDoP {
		return Result{Feasible: false,
			Reason: fmt.Sprintf("DoP %d exceeds memory-capped maximum %d (%d worker(s)/node)",
				dop, maxDoP, wpn)}
	}
	nodesUsed := (dop + wpn - 1) / wpn

	// Compute: per-worker share of the input, damped by skew-induced
	// stragglers (the slowest partition governs completion).
	perWorkerKB := inputGB * 1e6 / float64(dop)
	straggler := 1 + fp.Skew*math.Log(float64(dop)+1)
	compute := perWorkerKB * fp.PerKBms / 1000 * straggler
	startup := fp.StartupMs / 1000

	// Network: the input is read once and the annotated output written
	// with HDFS replication. HDFS spreads blocks cluster-wide, so the
	// aggregate bandwidth is that of all nodes, not just the workers'.
	totalGB := inputGB + inputGB*fp.OutputFactor*float64(c.ReplicationFactor)
	aggBandwidthGBs := float64(c.Nodes) * c.NetworkGbps / 8
	network := 0.0
	if aggBandwidthGBs > 0 {
		network = totalGB / aggBandwidthGBs
	}

	res := Result{
		Feasible:       true,
		ComputeSec:     compute,
		StartupSec:     startup,
		NetworkSec:     network,
		WorkersPerNode: wpn,
		NodesUsed:      nodesUsed,
	}
	// Compute and network overlap imperfectly; the longer one dominates
	// and the shorter contributes a congestion tail.
	if network > compute {
		res.NetworkBound = true
		res.TotalSec = startup + network + 0.25*compute
	} else {
		res.TotalSec = startup + compute + 0.25*network
	}
	return res
}

// SplitFlow partitions per-operator memory footprints into the fewest
// groups that each fit within limitGB, using first-fit-decreasing bin
// packing. This is the §4.2 war-story fix done by algorithm instead of by
// hand: "the scheduling component of Stratosphere does not consider memory
// consumption per worker node as optimization goal" — so the authors split
// the flow manually ("we split up the flow into different parts such that
// each part only required memory within the given limits"). Returns the
// groups as index lists into memGB, or an error if any single operator
// exceeds the limit.
func SplitFlow(memGB []float64, limitGB float64) ([][]int, error) {
	type item struct {
		idx int
		mem float64
	}
	items := make([]item, len(memGB))
	for i, m := range memGB {
		if m > limitGB {
			return nil, fmt.Errorf("cluster: operator %d needs %.1f GB, above the %.1f GB limit",
				i, m, limitGB)
		}
		items[i] = item{i, m}
	}
	// Sort decreasing by memory (insertion sort: operator counts are small).
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].mem > items[j-1].mem; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	var groups [][]int
	var loads []float64
	for _, it := range items {
		placed := false
		for g := range groups {
			if loads[g]+it.mem <= limitGB {
				groups[g] = append(groups[g], it.idx)
				loads[g] += it.mem
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{it.idx})
			loads = append(loads, it.mem)
		}
	}
	// Within each group, restore flow order.
	for _, g := range groups {
		for i := 1; i < len(g); i++ {
			for j := i; j > 0 && g[j] < g[j-1]; j-- {
				g[j], g[j-1] = g[j-1], g[j]
			}
		}
	}
	return groups, nil
}

// SweepPoint is one (DoP, result) pair of a scalability experiment.
type SweepPoint struct {
	DoP     int
	InputGB float64
	Result  Result
}

// ScaleOut fixes the input size and sweeps the DoP (Fig 5).
func (c Config) ScaleOut(fp FlowProfile, inputGB float64, dops []int) []SweepPoint {
	out := make([]SweepPoint, 0, len(dops))
	for _, d := range dops {
		out = append(out, SweepPoint{DoP: d, InputGB: inputGB, Result: c.Simulate(fp, inputGB, d)})
	}
	return out
}

// ScaleUp grows input and DoP together (Fig 4: "increased the number of
// available compute nodes synchronously to the amount of input data").
func (c Config) ScaleUp(fp FlowProfile, gbPerDoP float64, dops []int) []SweepPoint {
	out := make([]SweepPoint, 0, len(dops))
	for _, d := range dops {
		in := gbPerDoP * float64(d)
		out = append(out, SweepPoint{DoP: d, InputGB: in, Result: c.Simulate(fp, in, d)})
	}
	return out
}

// IdealScaleUp returns the flat reference line for a scale-up plot: the
// time the flow takes at the first point (perfect scale-up keeps it).
func IdealScaleUp(points []SweepPoint) float64 {
	for _, p := range points {
		if p.Result.Feasible {
			return p.Result.TotalSec
		}
	}
	return 0
}
