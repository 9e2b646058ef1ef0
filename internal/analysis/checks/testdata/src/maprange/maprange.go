// Package maprange exercises the maprange analyzer: map iteration feeding
// an ordered sink without a sort is flagged; the collect-then-sort idiom
// and suppressed loops are not. Likewise an argmin whose winning key is
// kept on a strict comparison, against its sorted-keys, key-tie-break and
// suppressed variants.
package maprange

import "sort"

// Keys leaks map order: appends without a subsequent sort — flagged.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedKeys collects then sorts — the sanctioned idiom, not flagged.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stream sends map entries on a channel in iteration order — flagged.
func Stream(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k
	}
}

// Batch is suppressed: the consumer merges and sorts downstream.
func Batch(m map[string]int) []string {
	var out []string
	//lintx:ignore maprange consumer sorts the merged batch downstream
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Nearest keeps the first key to reach the smallest distance: two keys at
// equal distance resolve by iteration order — flagged, on both branches.
func Nearest(dist map[string]int) (best, second string) {
	bestD, secondD := 1<<30, 1<<30
	for k, d := range dist {
		if d < bestD {
			second, secondD = best, bestD
			best, bestD = k, d
		} else if d < secondD {
			second, secondD = k, d
		}
	}
	return best, second
}

// NearestSorted walks the keys in sorted order, so the strict comparison
// gives ties to the first name — not flagged.
func NearestSorted(dist map[string]int) string {
	best, bestD := "", 1<<30
	for _, k := range SortedKeys(dist) {
		if d := dist[k]; d < bestD {
			best, bestD = k, d
		}
	}
	return best
}

// NearestTieBreak breaks ties on the key, which makes the winner the same
// in every iteration order — not flagged.
func NearestTieBreak(dist map[string]int) string {
	best, bestD := "", 1<<30
	for k, d := range dist {
		if d <= bestD && (d < bestD || k < best) {
			best, bestD = k, d
		}
	}
	return best
}

// First compares the keys themselves: distinct keys never tie — not flagged.
func First(dist map[string]int) string {
	first := "\xff"
	for k := range dist {
		if k < first {
			first = k
		}
	}
	return first
}

// AnyNearest is suppressed: its caller only tests the winner's distance.
func AnyNearest(dist map[string]int) string {
	best, bestD := "", 1<<30
	for k, d := range dist {
		//lintx:ignore maprange callers use only dist[best], equal for tied keys
		if d < bestD {
			best, bestD = k, d
		}
	}
	return best
}
