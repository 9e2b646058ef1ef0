package trace

import (
	"fmt"
	"sync"
	"testing"
)

// concurrentWorkload drives one recorder from many goroutines the way a
// DoP>1 dataflow run does: each worker owns a disjoint set of traces
// (serial per trace) but all emit through the shared recorder at once.
// Trace starts are serial (like the executor feeding sources in input
// order); span emission is concurrent with keyed slots.
func concurrentWorkload(seed uint64, workers, perWorker int) *Recorder {
	r := NewRecorder(Config{Seed: seed, HeadKeep: 4, TailKeep: 8, ReservoirKeep: 4, PinLimit: 64, MaxActive: 4096})
	total := workers * perWorker
	ctxs := make([]Context, total)
	for i := 0; i < total; i++ {
		ctxs[i] = r.Start("test.record", fmt.Sprintf("rec-%04d", i), int64(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				i := w*perWorker + j
				tc := ctxs[i]
				// Keyed slots: deterministic span IDs regardless of
				// cross-goroutine interleaving.
				op1 := tc.StartSpanKeyed("test.op.first", 1, int64(i)+1, Int("idx", int64(i)))
				op1.Event("op.enter", int64(i)+1)
				op1.End(int64(i) + 2)
				op2 := tc.StartSpanKeyed("test.op.second", 2, int64(i)+3)
				if i%17 == 0 {
					op2.Error("quarantine", int64(i)+4, String("reason", "synthetic"))
				}
				op2.End(int64(i) + 4)
				tc.Finish(int64(i) + 5)
			}
		}(w)
	}
	wg.Wait()
	return r
}

// TestConcurrentEmissionDeterministic is the core two-run byte-identity
// claim: concurrent span emission from racing workers still exports the
// same bytes per seed, because IDs, retention, and export order are all
// pure functions of the trace set.
func TestConcurrentEmissionDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 42, 12345} {
		a := concurrentWorkload(seed, 8, 40).Snapshot()
		b := concurrentWorkload(seed, 8, 40).Snapshot()
		if snapJSON(t, a) != snapJSON(t, b) {
			t.Fatalf("seed %d: two concurrent runs froze different snapshots", seed)
		}
		if a.Text() != b.Text() {
			t.Fatalf("seed %d: two concurrent runs exported different text", seed)
		}
	}
}

// TestConcurrentPinsSurvive checks every error-pinned trace survives
// concurrent eviction pressure.
func TestConcurrentPinsSurvive(t *testing.T) {
	r := concurrentWorkload(7, 8, 40)
	s := r.Snapshot()
	want := 0
	for i := 0; i < 8*40; i++ {
		if i%17 == 0 {
			want++
		}
	}
	if got := len(pinnedOf(s)); got != want {
		t.Fatalf("pinned traces: got %d, want %d", got, want)
	}
	for _, tr := range pinnedOf(s) {
		if len(tr.Spans) != 3 {
			t.Fatalf("pinned trace %s lost spans: %d", tr.ID, len(tr.Spans))
		}
	}
}

// TestConcurrentSnapshotWhileEmitting takes snapshots while workers are
// still emitting — the live /traces endpoint path — under -race. The
// snapshots share the traces' attr and event backing arrays, which the
// workers keep appending to.
func TestConcurrentSnapshotWhileEmitting(t *testing.T) {
	r := NewRecorder(Config{Seed: 3, MaxActive: 4096})
	stop := make(chan struct{})
	var emitters, reader sync.WaitGroup
	for w := 0; w < 4; w++ {
		emitters.Add(1)
		go func(w int) {
			defer emitters.Done()
			for i := 0; i < 200; i++ {
				tc := r.Start("test.record", fmt.Sprintf("w%d-%d", w, i), int64(i), Int("w", int64(w)))
				sub := tc.StartSpanKeyed("test.op.first", 1, int64(i))
				sub.Event("op.enter", int64(i))
				sub.End(int64(i) + 1)
				// Appends into the trace's attr buffer and event slices,
				// which snapshots taken meanwhile share.
				tc.Event("op.exit", int64(i)+1, Int("i", int64(i)))
				tc.Finish(int64(i) + 2)
			}
		}(w)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			_ = s.Text()
		}
	}()
	emitters.Wait()
	close(stop)
	reader.Wait()
}
