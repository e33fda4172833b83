package stats

import (
	"testing"
)

func TestBottomKOrderIndependent(t *testing.T) {
	// Feeding the same items in two different orders must retain the
	// identical set — the property Algorithm R reservoirs lack.
	const n, k = 10000, 64
	fwd, rev := NewBottomK(k), NewBottomK(k)
	for i := 0; i < n; i++ {
		key := Mix64(uint64(i))
		fwd.Offer(key, uint64(i), [3]float64{float64(i), 0, 0})
	}
	for i := n - 1; i >= 0; i-- {
		key := Mix64(uint64(i))
		rev.Offer(key, uint64(i), [3]float64{float64(i), 0, 0})
	}
	a, b := fwd.Items(), rev.Items()
	if len(a) != k || len(b) != k {
		t.Fatalf("retained %d and %d items, want %d", len(a), len(b), k)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if fwd.Seen() != n {
		t.Errorf("seen = %d, want %d", fwd.Seen(), n)
	}
}

func TestBottomKMergeEqualsSingleStream(t *testing.T) {
	// Sharding the stream and merging must retain exactly what a single
	// sketch over the whole stream retains, regardless of merge order.
	const n, k, shards = 5000, 128, 7
	whole := NewBottomK(k)
	parts := make([]*BottomK, shards)
	for s := range parts {
		parts[s] = NewBottomK(k)
	}
	for i := 0; i < n; i++ {
		key := Mix64(uint64(i) * 2654435761)
		vals := [3]float64{float64(i), float64(i * 2), float64(i * 3)}
		whole.Offer(key, uint64(i), vals)
		parts[i%shards].Offer(key, uint64(i), vals)
	}
	merged := NewBottomK(k)
	for _, p := range parts {
		merged.Merge(p)
	}
	a, b := whole.Items(), merged.Items()
	if len(a) != len(b) {
		t.Fatalf("retained %d vs %d items", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if merged.Seen() != whole.Seen() {
		t.Errorf("seen = %d, want %d", merged.Seen(), whole.Seen())
	}
}

func TestBottomKFewerThanK(t *testing.T) {
	b := NewBottomK(100)
	for i := 0; i < 10; i++ {
		b.Offer(uint64(10-i), uint64(i), [3]float64{})
	}
	items := b.Items()
	if len(items) != 10 {
		t.Fatalf("retained %d items, want 10", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i].Key <= items[i-1].Key {
			t.Fatalf("items not sorted by key: %v", items)
		}
	}
}

// TestBottomKSizes: at every stream length around the prune points, Offer
// and Merge retain the k smallest (Key, Tie) pairs, and the buffer holds
// no more than the items it has seen call for: at most max(2n, 8) while
// n < k, and never more than 2k.
func TestBottomKSizes(t *testing.T) {
	const k = 64
	for _, n := range []int{0, 1, k - 1, k, 2*k - 1, 2 * k, 5 * k} {
		items := make([]BottomKItem, n)
		for i := range items {
			items[i] = BottomKItem{Key: Mix64(uint64(i)), Tie: uint64(i), Vals: [3]float64{float64(i)}}
		}
		want := append([]BottomKItem(nil), items...)
		sortBottomK(want)
		want = want[:min(n, k)]

		capOK := func(b *BottomK, seen int) bool {
			if seen < k && cap(b.items) > max(2*seen, 8) {
				return false
			}
			return cap(b.items) <= 2*k
		}
		check := func(how string, b *BottomK) {
			t.Helper()
			if !capOK(b, n) {
				t.Errorf("n=%d %s: cap %d", n, how, cap(b.items))
			}
			got := b.Items()
			if len(got) != len(want) || b.Seen() != uint64(n) {
				t.Fatalf("n=%d %s: retained %d of %d seen, want %d of %d", n, how, len(got), b.Seen(), len(want), n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d %s: item %d = %+v, want %+v", n, how, i, got[i], want[i])
				}
			}
		}

		offered := NewBottomK(k)
		for i, it := range items {
			offered.Offer(it.Key, it.Tie, it.Vals)
			if !capOK(offered, i+1) {
				t.Fatalf("n=%d: cap %d after %d offers", n, cap(offered.items), i+1)
			}
		}
		check("Offer", offered)

		// Merge from one unpruned source, and from three shards.
		src := NewBottomK(k)
		parts := []*BottomK{NewBottomK(k), NewBottomK(k), NewBottomK(k)}
		for i, it := range items {
			src.Offer(it.Key, it.Tie, it.Vals)
			parts[i%3].Offer(it.Key, it.Tie, it.Vals)
		}
		one := NewBottomK(k)
		one.Merge(src)
		check("Merge", one)
		sharded := NewBottomK(k)
		for _, p := range parts {
			sharded.Merge(p)
		}
		check("sharded Merge", sharded)
	}
}

func TestHistBucketIndex(t *testing.T) {
	h := NewHist(100, 2)
	cases := []struct {
		v    float64
		want int
	}{
		{-1, -1}, {0, -1}, {50, -1}, // underflow
		{100, 0}, {150, 0}, {200, 1}, {399, 1}, {400, 2},
	}
	for _, c := range cases {
		if got := h.BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistRankBucket(t *testing.T) {
	h := NewLatencyHist()
	if got := h.RankBucket(0.95); got != -1 {
		t.Fatalf("empty RankBucket = %d, want -1", got)
	}
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i) * 1000)
	}
	// The P95 rank bucket must contain the value Quantile(0.95) returns.
	b := h.RankBucket(0.95)
	if b < 0 {
		t.Fatal("RankBucket(0.95) = -1 for non-empty hist")
	}
	if got := h.BucketIndex(h.Quantile(0.95)); got != b {
		t.Errorf("Quantile(0.95) lands in bucket %d, RankBucket says %d", got, b)
	}
	// All-underflow histogram: rank sits in the underflow bucket.
	u := NewLatencyHist()
	u.Add(-1)
	u.Add(0)
	if got := u.RankBucket(0.5); got != -1 {
		t.Errorf("underflow RankBucket = %d, want -1", got)
	}
}
