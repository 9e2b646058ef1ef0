package obs

// Keeper is the pillars' one bounded retention: of everything ever
// offered it holds the k smallest under less. less must be a total order
// over keys computed once, at admission; the kept set is then a pure
// function of the offered multiset, whatever the offer order. Chaining two
// keepers (a tail whose evictee is offered to a reservoir) keeps that
// property, which is all the log and trace retention classes are.
type Keeper[T any] struct {
	k     int
	less  func(a, b *T) bool
	items []T
}

// NewKeeper returns an empty keeper of at most k items.
func NewKeeper[T any](k int, less func(a, b *T) bool) *Keeper[T] {
	return &Keeper[T]{k: k, less: less}
}

// Offer admits x; past k items it removes the greatest (possibly x
// itself) and returns it.
func (kp *Keeper[T]) Offer(x T) (evicted T, full bool) {
	kp.items = append(kp.items, x)
	if len(kp.items) <= kp.k {
		return evicted, false
	}
	worst, last := 0, len(kp.items)-1
	for i := 1; i <= last; i++ {
		if kp.less(&kp.items[worst], &kp.items[i]) {
			worst = i
		}
	}
	evicted = kp.items[worst]
	kp.items[worst] = kp.items[last]
	kp.items = kp.items[:last]
	return evicted, true
}

// Items returns the kept items in no particular order; the slice is the
// keeper's own and is valid until the next Offer.
func (kp *Keeper[T]) Items() []T { return kp.items }

// FNV-1a constants (the repo's standard deterministic hash).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FNVMix folds uint64 words into an FNV-1a hash — the seeded stream that
// trace/span IDs, sampling decisions and retention priorities derive
// from. Byte order is fixed (little-endian), so they are platform-stable.
func FNVMix(parts ...uint64) uint64 {
	h := uint64(fnvOffset)
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h ^= (p >> (8 * i)) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// FNVString hashes a string with FNV-1a.
func FNVString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
