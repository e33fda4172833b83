package stubby

import (
	"bytes"
	"context"
	"testing"
	"time"

	"rpcscale/internal/testutil"
	"rpcscale/internal/trace"
)

// TestCallAllocBudget pins the steady-state allocation cost of a full
// loopback unary call — client marshal/seal/send, server decode/handle/
// respond, client receive/copy-out — so the pooled data plane cannot
// silently regress. The pre-pooling implementation spent 74 allocs per
// call; the budget below is under half that, with headroom over the
// current ~20 so incidental runtime changes don't flake.
func TestCallAllocBudget(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation counts differ under instrumented builds")
	}
	const budget = 35.0
	ch, _ := testSetup(t, Options{Workers: 2}, map[string]Handler{"svc/Echo": echoHandler})
	payload := bytes.Repeat([]byte{0x7f}, 512)
	ctx := context.Background()
	// Warm the connection, the buffer pools, and the runtime.
	for i := 0; i < 50; i++ {
		if _, err := ch.Call(ctx, "svc/Echo", payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		out, err := ch.Call(ctx, "svc/Echo", payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(payload) {
			t.Fatalf("echo length %d, want %d", len(out), len(payload))
		}
	})
	if allocs > budget {
		t.Errorf("loopback call: %.1f allocs/op, budget %.0f", allocs, budget)
	}
}

// TestUnobservedFailureBuildsNoSpan calls with an already-expired deadline
// on a channel with neither Observer nor Collector: the failure path, like
// the success path, must not build a span nobody receives.
func TestUnobservedFailureBuildsNoSpan(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation counts differ under instrumented builds")
	}
	ch, _ := testSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ch.Call(ctx, "svc/Echo", nil); Code(err) != trace.DeadlineExceeded {
			t.Fatalf("got %v, want DeadlineExceeded", err)
		}
	})
	if allocs > 1 {
		t.Errorf("unobserved expired call: %.1f allocs/op, want at most 1", allocs)
	}
}
