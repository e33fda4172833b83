package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rpcscale/internal/stats"
	"rpcscale/internal/testutil"
	"rpcscale/internal/trace"
)

// A shard sink pays for a method's histograms in proportion to what they
// hold: 1 000 methods with one stratified span each must stay within a
// byte budget, so a larger histogram header or a histogram allocated
// apart from its method fails here. The budget is 800 B a method, map
// included. Eight 72 B histograms held by value with 16-bit counts take
// about 765 B; eight behind pointers, with 88 B headers and 64-bit
// counts, took 1 013 B.
func TestMethodSpanBytesBudget(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("the race detector and sanitize shims change allocation sizes")
	}
	const methods, budget = 1000, 800 * 1000
	spans := make([]*trace.Span, methods)
	for i := range spans {
		s := &trace.Span{
			Method:        fmt.Sprintf("svc%d.Method%d", i%37, i),
			RequestBytes:  int64(100 + i),
			ResponseBytes: int64(2000 + 3*i),
			CPUCycles:     float64(5e5 + 7*i),
		}
		s.Breakdown[trace.ServerApp] = time.Duration(40_000 + 11*i)
		s.Breakdown[trace.ReqNetworkWire] = time.Duration(3_000 + i)
		s.Breakdown[trace.RespProcStack] = time.Duration(1_500 + i)
		spans[i] = s
	}
	k := NewReportSink()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, s := range spans {
		k.MethodSpan(s)
	}
	runtime.ReadMemStats(&after)
	if len(k.methods) != methods {
		t.Fatalf("sink holds %d methods, want %d", len(k.methods), methods)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("MethodSpan allocated %d B for %d methods (%d B each), budget %d B",
			got, methods, got/methods, budget)
	}
}

// taxAccum's sparse sums answer every tail as sums over the raw spans do,
// after observing into several accumulators in any bucket order and
// merging them.
func TestTaxAccumTailMatchesRaw(t *testing.T) {
	rng := stats.NewRNG(5)
	type obs struct{ tot, wire, stack, queue int64 }
	var raw []obs
	accs := make([]*taxAccum, 4)
	for a := range accs {
		accs[a] = newTaxAccum()
		for range 50 + 40*a {
			// Values from below the histogram's floor to ~10 s, so some
			// spans land in the underflow sums.
			tot := int64(stats.LogNormal{Mu: 9 + float64(a), Sigma: 3}.Sample(rng))
			o := obs{tot, tot / 3, tot / 5, tot / 7}
			raw = append(raw, o)
			accs[a].observe(o.tot, o.wire, o.stack, o.queue)
		}
	}
	merged := newTaxAccum()
	for _, a := range []int{2, 0, 3, 1} {
		merged.merge(accs[a])
	}
	for i := 1; i < len(merged.buckets); i++ {
		if merged.buckets[i-1].b >= merged.buckets[i].b {
			t.Fatalf("buckets out of order at %d: %d then %d", i, merged.buckets[i-1].b, merged.buckets[i].b)
		}
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.95, 0.99, 1} {
		b := merged.hist.RankBucket(q)
		var want [4]int64
		for _, o := range raw {
			if b < 0 || merged.hist.BucketIndex(float64(o.tot)) >= b {
				want[0] += o.tot
				want[1] += o.wire
				want[2] += o.stack
				want[3] += o.queue
			}
		}
		if got := merged.tail(q); got != want {
			t.Fatalf("tail(%v) = %v, raw sums %v", q, got, want)
		}
	}
}
