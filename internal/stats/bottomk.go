package stats

import "sort"

// BottomK keeps the k items with the smallest (Key, Tie) pairs seen so
// far. When Key is a hash of a stable per-item identifier, the retained
// set is a uniform sample of the stream that — unlike Algorithm R
// reservoirs — does not depend on observation order, needs no RNG, and
// merges exactly: Merge(a, b) retains precisely the items that a single
// sketch fed both streams would retain. That makes it the right
// subsampling primitive for sharded, streaming analyses that must produce
// identical results regardless of how the stream was partitioned.
type BottomK struct {
	k     int
	seen  uint64
	items []BottomKItem
}

// BottomKItem is one retained item: the hash key it was ordered by, a
// tiebreaker for items with equal keys, and a small fixed payload.
type BottomKItem struct {
	Key  uint64
	Tie  uint64
	Vals [3]float64
}

// NewBottomK returns a sketch retaining at most k items. Its buffer grows
// with the items it holds, doubling up to the 2k at which it is pruned, so
// a sketch that sees n < k items holds at most max(2n, 8) and one that
// never sees an item costs a few words.
func NewBottomK(k int) *BottomK {
	if k <= 0 {
		panic("stats: bottom-k capacity must be positive")
	}
	return &BottomK{k: k}
}

// Mix64 is a SplitMix64-style finalizer suitable for deriving BottomK
// keys from structured identifiers (trace and span IDs).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Offer records one item. Items that cannot be among the k smallest are
// discarded lazily: the buffer is pruned whenever it reaches 2k, keeping
// amortized O(log k) cost per offer. The buffer grows by doubling but
// never past 2k, where plain append would round a long stream's buffer up.
func (b *BottomK) Offer(key, tie uint64, vals [3]float64) {
	b.seen++
	if len(b.items) == cap(b.items) {
		b.items = append(make([]BottomKItem, 0, min(max(2*cap(b.items), 8), 2*b.k)), b.items...)
	}
	b.items = append(b.items, BottomKItem{Key: key, Tie: tie, Vals: vals})
	if len(b.items) >= 2*b.k {
		b.prune()
	}
}

// Merge folds another sketch into b. The result retains exactly the items
// a single sketch observing both streams would retain.
func (b *BottomK) Merge(other *BottomK) {
	if other == nil {
		return
	}
	for _, it := range other.items {
		b.Offer(it.Key, it.Tie, it.Vals)
	}
	b.seen += other.seen - uint64(len(other.items)) // Offer counted the items
}

// prune sorts the buffer and keeps only the k smallest items. Discarded
// items are ranked above the current kth smallest and so can never
// re-enter the final set.
func (b *BottomK) prune() {
	sortBottomK(b.items)
	if len(b.items) > b.k {
		b.items = b.items[:b.k]
	}
}

// Seen returns how many items were offered in total.
func (b *BottomK) Seen() uint64 { return b.seen }

// Items returns the retained items sorted ascending by (Key, Tie). The
// returned slice aliases the sketch; callers must not modify it.
func (b *BottomK) Items() []BottomKItem {
	b.prune()
	return b.items
}

func sortBottomK(items []BottomKItem) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].Key != items[j].Key {
			return items[i].Key < items[j].Key
		}
		return items[i].Tie < items[j].Tie
	})
}
