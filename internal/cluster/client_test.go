package cluster

import (
	"testing"

	"rpcscale/internal/trace"
)

// TestClientPlaneBoundsSpans drives a client child's plane past its span
// capacity: the snapshot the child ships stays exact, while the span store
// stops growing at the bound.
func TestClientPlaneBoundsSpans(t *testing.T) {
	plane := newClientPlane()
	const calls = 3 * clientSpanCapacity
	for i := 0; i < calls; i++ {
		s := &trace.Span{TraceID: trace.TraceID(i), SpanID: 1, Method: "svc.M/Get", Service: "svc"}
		s.Breakdown[trace.ServerApp] = 1000
		if i%10 == 0 {
			s.Err = trace.Unavailable
		}
		plane.Observe(s)
	}
	snap := plane.Snapshot()
	const ok = calls - (calls/10 + 1)
	if n := snap.LatencyHist().Count(); snap.Calls != calls || n != ok {
		t.Fatalf("snapshot calls=%d latency samples=%d, want %d and %d", snap.Calls, n, calls, ok)
	}
	if n := len(plane.Collector().Spans()); n > clientSpanCapacity {
		t.Fatalf("plane retained %d spans, capacity %d", n, clientSpanCapacity)
	}
}
