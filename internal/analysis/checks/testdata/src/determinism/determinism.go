// Package determinism exercises the determinism analyzer: wall-clock
// reads, blocking time primitives and math/rand imports are flagged;
// pure duration math and suppressed lines are not.
package determinism

import (
	"math/rand"
	"time"
)

// Elapsed reads the wall clock twice — both flagged.
func Elapsed() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// Backoff sleeps out a retry delay and polls a ticker — both flagged:
// delays are virtual-clock data (crawldb NextEligibleMs), never a block.
func Backoff(attempt int) {
	time.Sleep(time.Duration(500<<attempt) * time.Millisecond)
	t := time.NewTicker(time.Second)
	t.Stop()
}

// Roll draws from the global math/rand source; the import is flagged.
func Roll() int { return rand.Intn(6) }

// Stamp is suppressed: the harness wants one real timestamp.
func Stamp() time.Time {
	//lintx:ignore determinism report header wants one real timestamp
	return time.Now()
}
