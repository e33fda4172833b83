package telemetry

import (
	"encoding/json"
	"testing"
	"time"

	"rpcscale/internal/trace"
)

func observeSpan(p *Plane, method string, code trace.ErrorCode, latency time.Duration) {
	s := &trace.Span{
		TraceID: 1, SpanID: 2,
		Method:  method,
		Service: "svc",
		Err:     code,
	}
	s.Breakdown[trace.ServerApp] = latency
	p.Observe(s)
}

func TestSnapshotRoundTrip(t *testing.T) {
	p := New()
	for i := 0; i < 100; i++ {
		observeSpan(p, "svc/M", trace.OK, time.Duration(1+i)*time.Millisecond)
	}
	observeSpan(p, "svc/M", trace.Unavailable, time.Millisecond)

	snap := p.Snapshot()
	if snap.Calls != 101 {
		t.Fatalf("snapshot calls=%d", snap.Calls)
	}

	// Survive the JSON pipe the harness ships snapshots over.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	h := back.LatencyHist()
	if h.Count() != 100 {
		t.Fatalf("latency count = %d, want 100 (errors excluded)", h.Count())
	}
	p50 := h.Percentile(50)
	if p50 < float64(30*time.Millisecond) || p50 > float64(80*time.Millisecond) {
		t.Errorf("p50 = %v ns implausible for 1..100ms uniform", p50)
	}
}

func TestMergeSnapshots(t *testing.T) {
	mk := func(n int, lat time.Duration) Snapshot {
		p := New()
		for i := 0; i < n; i++ {
			observeSpan(p, "svc/M", trace.OK, lat)
		}
		observeSpan(p, "svc/M", trace.DeadlineExceeded, lat)
		return p.Snapshot()
	}
	merged := MergeSnapshots([]Snapshot{mk(10, time.Millisecond), mk(30, 4*time.Millisecond)})
	if merged.Calls != 42 {
		t.Fatalf("merged calls=%d", merged.Calls)
	}
	h := merged.LatencyHist()
	if h.Count() != 40 {
		t.Fatalf("merged latency count = %d", h.Count())
	}
	// 75% of samples at 4ms → p90 near 4ms, p25 near 1ms.
	if p90 := h.Percentile(90); p90 < float64(3*time.Millisecond) {
		t.Errorf("p90 = %v", p90)
	}
}

func TestMergeSnapshotsEmpty(t *testing.T) {
	merged := MergeSnapshots(nil)
	if merged.Calls != 0 || merged.LatencyHist().Count() != 0 {
		t.Fatal("empty merge not empty")
	}
}
