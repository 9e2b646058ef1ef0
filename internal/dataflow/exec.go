package dataflow

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webtextie/internal/obs"
	"webtextie/internal/obs/pillars"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/trace"
)

// ErrorPolicy selects Execute's response to UDF errors and panics.
type ErrorPolicy int

const (
	// Quarantine (the default) counts the failure, moves the offending
	// input record to the dead-letter output (ExecStats.Quarantined), and
	// keeps the flow running — the §5 robustness requirement: a single
	// malformed page must not kill an 80-day crawl analysis.
	Quarantine ErrorPolicy = iota
	// FailFast aborts the execution on the first terminal UDF error or
	// panic and returns it from Execute.
	FailFast
)

// quarantineLimit caps the dead-letter records retained in
// ExecStats.Quarantined; overflowing records are still counted in stats
// and metrics.
const quarantineLimit = 1024

// ExecConfig controls plan execution.
//
// Execute owns every record in flight: a source hop clones its input record
// once, so the caller's input is never written, and a fan-out clones once
// per extra reader. An operator with Op.InPlace edits the owned record
// itself, under an undo log of its Writes that restores them when an
// attempt fails; any other operator runs Fn, which writes nothing it is
// handed.
type ExecConfig struct {
	// DoP is the number of chain instances: worker goroutines that each
	// carry whole records through the plan, so at most DoP operator calls
	// run at once.
	DoP int
	// Set attaches the observability pillars; a nil handle leaves that
	// pillar off (Series is not used: an execution has no sample clock).
	//
	// Metrics receives the per-operator counters (records in and out,
	// errors, retries, panics, quarantines) — no clock readings, so the
	// registry is a function of the plan and its input. Nil uses a fresh
	// private registry so ExecStats stays exact; pass obs.Default() (or
	// any shared registry) to accumulate across executions. Sharing one
	// registry between *concurrent* executions keeps the metric totals
	// exact but makes the per-execution ExecStats deltas approximate.
	//
	// Trace records every record's lineage: one trace per input record,
	// one span per operator the record (or a record derived from it)
	// passes through, with retry/panic/quarantine events. Timestamps are
	// the plan-position logical clock (node id), so exports are
	// deterministic per seed even under DoP > 1. Under FailFast the drain
	// after an abort leaves unprocessed spans open — trace determinism is
	// only guaranteed under the Quarantine policy.
	//
	// Log receives the execution's event log: exec lifecycle and one
	// summary record per operator; what happens to one record (retries,
	// panics, quarantines) is its trace's alone. Timestamps are the same
	// logical clock the tracer uses, and every record is emitted serially,
	// so the exported log is byte-identical across DoP settings per seed.
	//
	// Prof attributes execution cost per operator under
	// dataflow.op.<name> scopes: every processed record is one bracket
	// (a call and its real nanoseconds) around the operator invocation,
	// retries included, closed before its emissions move downstream, so
	// downstream operators run outside the upstream bracket. It is the
	// executor's only per-operator wall-clock reading. Call counts are
	// DoP-independent under the Quarantine policy — the same caveat as
	// Trace.
	pillars.Set
	// Policy selects the response to UDF errors (Quarantine by default).
	Policy ErrorPolicy
	// OpRetries is the per-record retry budget for a failing operator:
	// the record is re-presented up to OpRetries more times before it is
	// quarantined (or, under FailFast, kills the run). At any budget an
	// attempt that fails or returns ErrStopFlow emits nothing, so retried
	// records produce output exactly once.
	OpRetries int
	// TraceKey names the record field holding the document identity used
	// as the trace key (e.g. "id"). Records without the field fall back to
	// an input-index key.
	TraceKey string
}

// NodeStats aggregates one node's execution counters.
type NodeStats struct {
	In, Out int64
	// Errors counts records an operator terminally failed on (after
	// retries) — quarantined under the default policy.
	Errors int64
	// Retries counts re-presented records; Panics counts recovered UDF
	// panics; Quarantined counts records moved to the dead-letter output.
	Retries, Panics, Quarantined int64
}

// QuarantinedRecord is one dead-letter entry: the input record an
// operator could not process, with the terminal error.
type QuarantinedRecord struct {
	// NodeID and Op identify the failing operator instance.
	NodeID int
	Op     string
	// Err is the terminal error's message.
	Err string
	// Rec is the offending input record, as it entered the operator.
	Rec Record
	// Trace is the hex trace ID of the record's lineage (empty when the
	// execution ran without tracing) — the handle for reconstructing every
	// hop the record took before it was dead-lettered.
	Trace string
}

// ExecStats describes one plan execution.
type ExecStats struct {
	// PerNode maps node id to its counters.
	PerNode map[int]*NodeStats
	// Wall is the end-to-end execution time.
	Wall time.Duration
	// Quarantined is the dead-letter output, sorted by (node, error,
	// record) so concurrent executions report deterministically. Capped
	// at quarantineLimit; NodeStats.Quarantined holds the uncapped counts.
	Quarantined []QuarantinedRecord
}

// TotalErrors sums terminal UDF failures across nodes.
func (s *ExecStats) TotalErrors() int64 {
	return s.total(func(ns *NodeStats) int64 { return ns.Errors })
}

// TotalRetries sums record re-presentations across nodes.
func (s *ExecStats) TotalRetries() int64 {
	return s.total(func(ns *NodeStats) int64 { return ns.Retries })
}

// TotalQuarantined sums dead-lettered records across nodes (uncapped).
func (s *ExecStats) TotalQuarantined() int64 {
	return s.total(func(ns *NodeStats) int64 { return ns.Quarantined })
}

// total sums one counter across nodes.
func (s *ExecStats) total(counter func(*NodeStats) int64) (t int64) {
	for _, ns := range s.PerNode {
		t += counter(ns)
	}
	return t
}

// nodeMetrics bundles one node's obs instruments. The executor's bespoke
// atomic counters were replaced by these: ExecStats is now derived from
// registry deltas after the run.
type nodeMetrics struct {
	in, out, errs                *obs.Counter
	retries, panics, quarantined *obs.Counter
	in0, out0, errs0             int64 // registry values before this execution
	retries0, panics0, quar0     int64
}

// MetricName returns the obs registry name for one per-operator metric of
// a plan node: dataflow.op.<id>.<opname>.<metric>. Ids are zero-padded so
// rendered snapshots sort in plan order.
func MetricName(n *Node, metric string) string {
	return fmt.Sprintf("dataflow.op.%02d.%s.%s", n.id, n.Op.Name, metric)
}

func newNodeMetrics(reg *obs.Registry, n *Node) *nodeMetrics {
	m := &nodeMetrics{
		in:          reg.Counter(MetricName(n, "in")),
		out:         reg.Counter(MetricName(n, "out")),
		errs:        reg.Counter(MetricName(n, "errors")),
		retries:     reg.Counter(MetricName(n, "retries")),
		panics:      reg.Counter(MetricName(n, "panics")),
		quarantined: reg.Counter(MetricName(n, "quarantined")),
	}
	m.in0, m.out0, m.errs0 = m.in.Value(), m.out.Value(), m.errs.Value()
	m.retries0, m.panics0, m.quar0 = m.retries.Value(), m.panics.Value(), m.quarantined.Value()
	return m
}

// errPanic marks errors synthesized from recovered UDF panics.
var errPanic = errors.New("dataflow: operator panicked")

// safeUDF invokes a UDF with panic recovery: a panicking operator reads
// as an error instead of tearing down the whole execution.
func safeUDF(fn UDF, rec Record, emit Emit) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errPanic, p)
		}
	}()
	return fn(rec, emit)
}

// execNode is one plan node's state for one execution: its instruments,
// the nodes reading its output (none for a sink), its hop span name, its
// profiler scope, and the UDF it runs: Op.Fn, or for an in-place operator
// Op.InPlace emitting the record it edited.
type execNode struct {
	*Node
	m       *nodeMetrics
	readers []*execNode
	span    string
	scope   prof.Scope
	fn      UDF
}

// worker is one chain instance's scratch, built once per worker: its
// emission buffer and emitter per node (a node is on an acyclic path once,
// so no buffer is in use twice) and the undo log of the in-place call in
// progress (one at a time: a call returns before its emissions move on).
type worker struct {
	bufs  [][]Record
	emits []Emit
	undo  []savedField
}

// savedField is one undo-log entry: a field of the owned record as it was
// before an in-place call, present or not.
type savedField struct {
	name    string
	val     any
	present bool
}

// save logs rec's fields into the worker's undo log.
func (w *worker) save(rec Record, fields []string) {
	w.undo = w.undo[:0]
	for _, f := range fields {
		v, ok := rec[f]
		w.undo = append(w.undo, savedField{f, v, ok})
	}
}

// restore puts rec's logged fields back, deleting those that were absent.
func (w *worker) restore(rec Record) {
	for _, s := range w.undo {
		if s.present {
			rec[s.name] = s.val
		} else {
			delete(rec, s.name)
		}
	}
}

// hopSlot keys a child span by (downstream node, emit index): the emit
// index is the emission's position in one process() call's output, so span
// IDs are deterministic per record path regardless of worker interleaving.
func hopSlot(nodeID, emitIdx int) uint64 { return uint64(nodeID)<<32 | uint64(emitIdx) }

// quarantineLog collects dead-letter records across worker goroutines.
type quarantineLog struct {
	mu   sync.Mutex
	recs []QuarantinedRecord
}

func (q *quarantineLog) add(n *Node, rec Record, err error, tc trace.Context) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.recs) >= quarantineLimit {
		return
	}
	id := ""
	if tc.Active() {
		id = tc.Trace.String()
	}
	q.recs = append(q.recs, QuarantinedRecord{
		NodeID: n.id, Op: n.Op.Name, Err: err.Error(), Rec: rec, Trace: id,
	})
}

// sorted returns the dead-letter output in deterministic order: workers
// race to append, but the *set* per seed is fixed, so sorting by (node,
// error, record rendering) makes the report reproducible. fmt renders
// maps with sorted keys, giving a stable record key — rendered once per
// dead letter, not per comparison: the record can be a whole document.
func (q *quarantineLog) sorted() []QuarantinedRecord {
	type keyed struct {
		QuarantinedRecord
		key string
	}
	ks := make([]keyed, len(q.recs))
	for i, r := range q.recs {
		ks[i] = keyed{r, fmt.Sprintf("%v", r.Rec)}
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := &ks[i], &ks[j]
		if a.NodeID != b.NodeID {
			return a.NodeID < b.NodeID
		}
		if a.Err != b.Err {
			return a.Err < b.Err
		}
		return a.key < b.key
	})
	for i := range ks {
		q.recs[i] = ks[i].QuarantinedRecord
	}
	return q.recs
}

// process runs one owned record through one operator under the error
// policy: panic recovery, up to cfg.OpRetries re-presentations, then
// quarantine or abort. Each attempt hands its emissions to the worker's
// emitter, which appends them to the node's reusable buffer; the caller
// routes them once process returns, and an attempt that fails or stops the
// flow leaves none — and, in place, leaves rec as it was, so a retry is
// handed the record as it entered the node (Fn never writes it). A non-nil
// return is a FailFast abort.
func process(x *execNode, cfg ExecConfig, rec Record, tc trace.Context, w *worker, q *quarantineLog) error {
	n, nm := x.Node, x.m
	inPlace := n.Op.InPlace != nil
	ts := int64(n.id) // plan-position logical clock
	var lastErr error
	for attempt := 0; attempt <= cfg.OpRetries; attempt++ {
		if attempt > 0 {
			nm.retries.Inc()
			tc.Event("op.retry", ts, trace.Int("attempt", int64(attempt)))
		}
		if inPlace {
			w.save(rec, n.Op.Writes)
		}
		err := safeUDF(x.fn, rec, w.emits[n.id])
		if err == nil {
			return nil
		}
		w.bufs[n.id] = w.bufs[n.id][:0]
		if inPlace {
			w.restore(rec)
		}
		if errors.Is(err, ErrStopFlow) {
			tc.Event("op.filtered", ts)
			return nil // filtered, not a failure
		}
		if errors.Is(err, errPanic) {
			nm.panics.Inc()
			// Panic recovery is a flight-recorder event: pin the lineage.
			tc.Error("panic", ts, trace.String("op", n.Op.Name))
		}
		lastErr = err
	}
	nm.errs.Inc()
	if cfg.Policy == FailFast {
		tc.Event("op.abort", ts, trace.String("cause", lastErr.Error()))
		return fmt.Errorf("dataflow: op %q: %w", n.Op.Name, lastErr)
	}
	nm.quarantined.Inc()
	// Quarantine routing pins the record's full lineage so the dead letter
	// is reconstructible hop by hop.
	tc.Error("quarantine", ts,
		trace.String("op", n.Op.Name), trace.String("cause", lastErr.Error()))
	q.add(n, rec, lastErr, tc)
	return nil
}

// Execute runs the plan over the input records. Records are fed to every
// node without inputs; the returned map holds the records that reached
// each sink node (keyed by node id). Every edge is a forward edge, so the
// whole plan is one chain in Stratosphere's sense: cfg.DoP workers take
// input records in turn and carry each one depth-first through the DAG,
// running each operator and then every reader of its emissions.
//
// UDF failures follow cfg.Policy: under Quarantine (default) the failing
// record lands in ExecStats.Quarantined and the flow continues; under
// FailFast the first terminal failure aborts the run and is returned.
// Operator panics are recovered and treated as errors either way.
//
// A plan runs in one Execute at a time: Op.Init creates the operators'
// per-run state, so consecutive runs of one plan are independent, but two
// concurrent runs would share it.
func Execute(p *Plan, input []Record, cfg ExecConfig) (map[int][]Record, *ExecStats, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.DoP <= 0 {
		cfg.DoP = 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	wall := obs.StartSpan()
	reg.Counter("dataflow.executions").Inc()

	// The event log (a no-op when cfg.Log is nil) is written serially: the
	// run's lifecycle here and its per-operator summaries after every
	// worker has joined, so the export is identical at any DoP.
	lgExec := cfg.Log.Logger("dataflow.exec")
	// exec.start deliberately omits DoP: the log contract is byte-identity
	// across DoP settings, and worker count is run shape, not plan content.
	lgExec.Info("exec.start", 0,
		trace.Int("records", int64(len(input))),
		trace.Int("nodes", int64(len(p.nodes))))

	// Per-node state, indexed by node id (ids are plan positions). Span
	// names and profiler scopes go through the sanctioned dotted-name
	// builders (operator names are config data, not compile-time
	// constants); a zero Scope is the disabled one.
	stats := &ExecStats{PerNode: map[int]*NodeStats{}}
	nodes := make([]execNode, len(p.nodes))
	for _, n := range p.nodes {
		stats.PerNode[n.id] = &NodeStats{}
		x := &nodes[n.id]
		x.Node, x.m, x.fn = n, newNodeMetrics(reg, n), n.Op.Fn
		if f := n.Op.InPlace; f != nil {
			x.fn = func(rec Record, emit Emit) (err error) {
				if err = f(rec); err == nil {
					emit(rec)
				}
				return err
			}
		}
		x.span = trace.TraceName("dataflow.op", n.Op.Name)
		if cfg.Prof != nil {
			x.scope = cfg.Prof.Scope(prof.ScopeName("dataflow.op", n.Op.Name))
		}
		for _, in := range n.Inputs {
			nodes[in.id].readers = append(nodes[in.id].readers, x)
		}
	}

	// Operator Init runs before any goroutine spawns, so an Init error
	// returns cleanly instead of leaking blocked workers.
	for _, n := range p.nodes {
		if n.Op.Init == nil {
			continue
		}
		if err := n.Op.Init(); err != nil {
			return nil, nil, fmt.Errorf("dataflow: init %q: %w", n.Op.Name, err)
		}
	}

	quar := &quarantineLog{}
	// abortErr holds the first FailFast error; once set, workers count the
	// records that reach a node without processing them.
	var abortErr atomic.Pointer[error]
	results := map[int][]Record{}
	var resultsMu sync.Mutex

	// walk runs one owned record through x, then carries each emission into
	// every reader, minting the reader's hop span as a child of the
	// record's. A fan-out clones the emission for every reader but the
	// last, so each reader owns what it is handed.
	var walk func(x *execNode, rec Record, tc trace.Context, w *worker)
	walk = func(x *execNode, rec Record, tc trace.Context, w *worker) {
		x.m.in.Inc()
		if abortErr.Load() != nil {
			return // fail-fast: drain without processing
		}
		w.bufs[x.id] = w.bufs[x.id][:0]
		ph := x.scope.Enter()
		err := process(x, cfg, rec, tc, w, quar)
		ph.Exit()
		tc.End(int64(x.id) + 1)
		if err != nil {
			abort := err // escapes to the heap only on the failing path
			abortErr.CompareAndSwap(nil, &abort)
		}
		for i, rec := range w.bufs[x.id] {
			x.m.out.Inc()
			if len(x.readers) == 0 {
				resultsMu.Lock()
				results[x.id] = append(results[x.id], rec)
				resultsMu.Unlock()
			}
			for j, r := range x.readers {
				own := rec
				if j != len(x.readers)-1 {
					own = rec.Clone()
				}
				//lintx:ignore tracename span names are precomputed through TraceName above
				walk(r, own, tc.StartSpanKeyed(r.span, hopSlot(r.id, i), int64(r.id)), w)
			}
		}
	}

	// One lineage trace per input record, minted serially in input order so
	// trace IDs are deterministic. Keys come from the TraceKey field when
	// present.
	var roots []trace.Context
	if cfg.Trace != nil {
		roots = make([]trace.Context, len(input))
		for i, rec := range input {
			key := fmt.Sprintf("record.%06d", i)
			if cfg.TraceKey != "" {
				if s, ok := rec[cfg.TraceKey].(string); ok && s != "" {
					key = s
				}
			}
			roots[i] = cfg.Trace.Start("dataflow.record", key, 0, trace.Int("index", int64(i)))
		}
	}

	// DoP workers take input records in turn and walk each from every
	// source node. Each source hop gets its own copy of the record, the
	// one the walk owns, and its own source-hop span under the record's
	// root.
	var sources []*execNode
	for i := range nodes {
		if len(nodes[i].Inputs) == 0 {
			sources = append(sources, &nodes[i])
		}
	}
	var next atomic.Int64 // the next input record to take
	var workers sync.WaitGroup
	for w := 0; w < cfg.DoP; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			w := &worker{bufs: make([][]Record, len(nodes)), emits: make([]Emit, len(nodes))}
			for id := range w.emits {
				w.emits[id] = func(r Record) { w.bufs[id] = append(w.bufs[id], r) }
			}
			for i := int(next.Add(1) - 1); i < len(input); i = int(next.Add(1) - 1) {
				for _, s := range sources {
					var tc trace.Context
					if roots != nil {
						//lintx:ignore tracename span names are precomputed through TraceName above
						tc = roots[i].StartSpanKeyed(s.span, hopSlot(s.id, 0), int64(s.id))
					}
					walk(s, input[i].Clone(), tc, w)
				}
			}
		}()
	}
	workers.Wait()

	// Close every record's trace at the end of the plan (serial, so
	// retention decisions replay identically run to run).
	for i := range roots {
		roots[i].Finish(int64(len(p.nodes)) + 1)
	}
	stats.Wall = wall.End()
	// Fill the public per-node stats from the registry deltas, and emit
	// the per-operator summaries in plan order.
	endTs := int64(len(p.nodes)) + 1
	lgOp := cfg.Log.Logger("dataflow.op")
	for _, n := range p.nodes {
		ns, nm := stats.PerNode[n.id], nodes[n.id].m
		ns.In = nm.in.Value() - nm.in0
		ns.Out = nm.out.Value() - nm.out0
		ns.Errors = nm.errs.Value() - nm.errs0
		ns.Retries = nm.retries.Value() - nm.retries0
		ns.Panics = nm.panics.Value() - nm.panics0
		ns.Quarantined = nm.quarantined.Value() - nm.quar0
		lgOp.Info("op.summary", endTs,
			trace.String("op", n.Op.Name), trace.Int("node", int64(n.id)),
			trace.Int("in", ns.In), trace.Int("out", ns.Out),
			trace.Int("quarantined", ns.Quarantined))
	}
	stats.Quarantined = quar.sorted()
	lgExec.Info("exec.done", endTs,
		trace.Int("quarantined", stats.TotalQuarantined()),
		trace.Int("retries", stats.TotalRetries()))
	if ep := abortErr.Load(); ep != nil {
		return nil, stats, *ep
	}
	return results, stats, nil
}
