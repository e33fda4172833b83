package stubby

// Data-plane floors for the multi-core path (DESIGN.md §16): allocation
// budgets for the inline unary path and the pipelined bulk path, and the
// codec-worker shutdown drain. The alloc tests are race-gated like
// TestCallAllocBudget — instrumented builds change allocation counts.

import (
	"bytes"
	"context"
	"testing"

	"rpcscale/internal/testutil"
)

// TestUnaryInlineAllocFloor pins the small unary path: a 128 B echo stays
// at or under 15 allocs per call end to end, the floor the ISSUE-10
// acceptance criteria state, whether it is dispatched directly or through
// the queues. Small frames must never detour through the codec pool
// (codecInlineMax gates them), so this holds with the pool running too.
func TestUnaryInlineAllocFloor(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation counts differ under instrumented builds")
	}
	// The per-benchmark floor is 15 allocs/op; AllocsPerRun additionally
	// observes server-side worker wakeups that the bench loop amortizes,
	// so the test budget carries a small fixed headroom over the floor.
	for _, tc := range []struct {
		name   string
		procs  int
		budget float64
	}{
		{"inline", 1, 17},
		{"workers", 2, 22},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(t, tc.procs)
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
			if allocs > tc.budget {
				t.Errorf("unary 128B: %.1f allocs/op, budget %.0f", allocs, tc.budget)
			}
		})
	}
}

// TestBulkPipelinedAllocFloor pins the pipelined bulk download path with
// the codec pool on: a 64 KiB response rides the bulk lane, its
// chunks are sealed/opened by workers, and the response buffer is recycled
// with FreeResponse. The documented floor is 30 allocs per call: the
// inline path's 15 plus the pipelined path's per-chunk job handoffs
// (codec jobs and their done channels recycle through the pool's free
// list, but pump-side recvItem plumbing and occasional free-list misses
// cost a bounded handful more).
func TestBulkPipelinedAllocFloor(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation counts differ under instrumented builds")
	}
	const budget = 30.0
	blob := make([]byte, 64<<10)
	withProcs(t, 2)
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
		t.Errorf("pipelined bulk 64KiB: %.1f allocs/op, budget %.0f", allocs, budget)
	}
}

// TestCodecWorkerShutdownDrains proves Channel.Close drains every worker
// the pipelined data plane spawned — codec pools on both ends, stripe
// connections, and the receive pumps — with no goroutine left behind.
// leakcheck (registered by testSetup) fails the test if anything the
// two-proc, two-stripe configuration started outlives Close.
func TestCodecWorkerShutdownDrains(t *testing.T) {
	blob := make([]byte, 128<<10)
	withProcs(t, 2)
	ch, srv := testSetup(t, Options{Workers: 2, ConnStripes: 2},
		map[string]Handler{
			"svc/Echo": echoHandler,
			"svc/Get": func(ctx context.Context, p []byte) ([]byte, error) {
				return blob, nil
			},
		})
	ctx := context.Background()
	// Engage every lane: inline unary, pipelined bulk across stripes.
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
	// post-close calls fail fast with a coded status instead of hanging
	// on a dead worker pool.
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Call(ctx, "svc/Echo", []byte("late")); Code(err) != ErrUnavailable.Code {
		t.Fatalf("post-close call: err = %v, want %v", err, ErrUnavailable)
	}
	srv.Close()
	// leakcheck's cleanup now snapshots goroutines: codec workers on both
	// ends, stripe loops, and recv pumps must all have exited.
}
