//go:build race

package core

// Under the race detector sync.Pool drops what it is handed, so the POS
// tagger's pooled lattice is allocated afresh on most calls.
func init() { raceEnabled = true }
