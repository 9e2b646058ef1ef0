package main

import "time"

// stopwatch is the benchmark's one way to the wall clock. The rest of the
// tree keeps to virtual clocks so that its exports are deterministic, and
// lintx enforces that; measuring wall time is what this directory is for.
type stopwatch struct{ t0 time.Time }

func startWatch() stopwatch {
	//lintx:ignore determinism a benchmark measures wall time; nothing it exports is compared byte for byte
	return stopwatch{time.Now()}
}

func (s stopwatch) elapsed() time.Duration {
	//lintx:ignore determinism a benchmark measures wall time; nothing it exports is compared byte for byte
	return time.Since(s.t0)
}
