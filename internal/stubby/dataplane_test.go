package stubby

// Data-plane floors (DESIGN.md §16): allocation budgets for the small
// unary path and the bulk download path, and the join of every loop a
// channel starts. The alloc tests are race-gated like
// TestCallAllocBudget — instrumented builds change allocation counts.

import (
	"bytes"
	"context"
	"testing"

	"rpcscale/internal/testutil"
)

// TestUnaryInlineAllocFloor pins the small unary path: a 128 B echo stays
// at or under 14 allocs per call end to end, whether it is dispatched
// directly or through the queues.
func TestUnaryInlineAllocFloor(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation counts differ under instrumented builds")
	}
	// The per-benchmark floor is 14 allocs/op; AllocsPerRun additionally
	// observes server-side worker wakeups that the bench loop amortizes,
	// so the test budget carries a small fixed headroom over the floor.
	const budget = 16.0
	// A 128 B payload rides the inline envelope, not the bulk lane.
	t.Run("inline", func(t *testing.T) {
		ch, _ := testSetup(t, Options{Workers: 2}, map[string]Handler{"svc/Echo": echoHandler})
		payload := bytes.Repeat([]byte{0x42}, 128)
		ctx := context.Background()
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
			t.Errorf("unary 128B: %.1f allocs/op, budget %.0f", allocs, budget)
		}
	})
}

// TestBulkDownloadAllocFloor pins the bulk download path: a 16 B request,
// a 64 KiB response on the bulk lane, sealed and opened in the connection's
// loops, and the response buffer recycled with FreeResponse. It measures 14
// allocs per call, as the small path does; the budget leaves AllocsPerRun
// the headroom TestUnaryInlineAllocFloor's comment explains.
func TestBulkDownloadAllocFloor(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation counts differ under instrumented builds")
	}
	const budget = 20.0
	blob := make([]byte, 64<<10)
	ch, _ := testSetup(t, Options{Workers: 2},
		map[string]Handler{"svc/Get": func(ctx context.Context, p []byte) ([]byte, error) {
			return blob, nil
		}})
	ctx := context.Background()
	req := make([]byte, 16)
	for i := 0; i < 50; i++ {
		out, err := ch.Call(ctx, "svc/Get", req)
		if err != nil {
			t.Fatal(err)
		}
		FreeResponse(out)
	}
	allocs := testing.AllocsPerRun(300, func() {
		out, err := ch.Call(ctx, "svc/Get", req)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(blob) {
			t.Fatalf("got %d bytes, want %d", len(out), len(blob))
		}
		FreeResponse(out)
	})
	if allocs > budget {
		t.Errorf("bulk 64KiB: %.1f allocs/op, budget %.0f", allocs, budget)
	}
}

// TestChannelCloseJoinsEveryLoop proves Channel.Close joins every goroutine
// a channel and its server connection started — the send and receive
// loops on both ends — with none left behind. leakcheck
// (registered by testSetup) fails the test if anything outlives Close.
func TestChannelCloseJoinsEveryLoop(t *testing.T) {
	blob := make([]byte, 128<<10)
	ch, srv := testSetup(t, Options{Workers: 2},
		map[string]Handler{
			"svc/Echo": echoHandler,
			"svc/Get": func(ctx context.Context, p []byte) ([]byte, error) {
				return blob, nil
			},
		})
	ctx := context.Background()
	// Engage every lane: small unary and bulk.
	for i := 0; i < 8; i++ {
		if _, err := ch.Call(ctx, "svc/Echo", []byte("ping")); err != nil {
			t.Fatal(err)
		}
		out, err := ch.Call(ctx, "svc/Get", nil)
		if err != nil {
			t.Fatal(err)
		}
		FreeResponse(out)
	}
	// Close explicitly (the cleanup's Close becomes a no-op) and verify
	// post-close calls fail fast with a coded status instead of hanging.
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Call(ctx, "svc/Echo", []byte("late")); Code(err) != errUnavailable.Code {
		t.Fatalf("post-close call: err = %v, want %v", err, errUnavailable)
	}
	srv.Close()
	// leakcheck's cleanup now snapshots goroutines: the loops on both ends
	// must all have exited.
}
