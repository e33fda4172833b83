package stubby

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpcscale/internal/leakcheck"
	"rpcscale/internal/trace"
)

func TestRetryTransientFailure(t *testing.T) {
	var attempts atomic.Int32
	policy := DefaultRetryPolicy()
	ch, _ := testSetup(t, Options{Retry: &policy}, map[string]Handler{
		"svc/Flaky": func(ctx context.Context, p []byte) ([]byte, error) {
			if attempts.Add(1) < 3 {
				return nil, Errorf(trace.Unavailable, "transient")
			}
			return []byte("ok"), nil
		},
	})
	out, err := ch.Call(context.Background(), "svc/Flaky", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" || attempts.Load() != 3 {
		t.Fatalf("out=%q attempts=%d", out, attempts.Load())
	}
}

func TestRetryPermanentErrorNotRetried(t *testing.T) {
	var attempts atomic.Int32
	policy := DefaultRetryPolicy()
	ch, _ := testSetup(t, Options{Retry: &policy}, map[string]Handler{
		"svc/Denied": func(ctx context.Context, p []byte) ([]byte, error) {
			attempts.Add(1)
			return nil, Errorf(trace.NoPermission, "no")
		},
	})
	_, err := ch.Call(context.Background(), "svc/Denied", []byte("x"))
	if Code(err) != trace.NoPermission {
		t.Fatalf("err = %v", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("permanent error retried %d times", attempts.Load())
	}
}

func TestRetryExhaustion(t *testing.T) {
	var attempts atomic.Int32
	policy := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	ch, _ := testSetup(t, Options{Retry: &policy}, map[string]Handler{
		"svc/Down": func(ctx context.Context, p []byte) ([]byte, error) {
			attempts.Add(1)
			return nil, Errorf(trace.Unavailable, "still down")
		},
	})
	_, err := ch.Call(context.Background(), "svc/Down", []byte("x"))
	if Code(err) != trace.Unavailable {
		t.Fatalf("err = %v", err)
	}
	if attempts.Load() != 4 {
		t.Fatalf("attempts = %d, want 4", attempts.Load())
	}
}

func TestRetryHonorsContextDuringBackoff(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Hour}
	ch, _ := testSetup(t, Options{Retry: &policy}, map[string]Handler{
		"svc/Down": func(ctx context.Context, p []byte) ([]byte, error) {
			return nil, Errorf(trace.Unavailable, "down")
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ch.Call(ctx, "svc/Down", []byte("x"))
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("backoff ignored the context")
	}
}

func TestRetryableCodesCustom(t *testing.T) {
	if !retryable(trace.Unavailable) || !retryable(trace.NoResource) ||
		retryable(trace.NoPermission) || retryable(trace.DeadlineExceeded) {
		t.Fatal("retryable set wrong")
	}
}

func poolSetup(t *testing.T, opts Options, handlers map[string]Handler, size int) (*Pool, *Server) {
	t.Helper()
	srv := NewServer(opts)
	for m, h := range handlers {
		srv.Register(m, h)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	pool, err := NewPool(l.Addr().String(), "pool-test", size, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pool.Close()
		srv.Close()
	})
	return pool, srv
}

func TestPoolBasicCalls(t *testing.T) {
	pool, _ := poolSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler}, 4)
	if pool.size() != 4 {
		t.Fatalf("size = %d", pool.size())
	}
	for i := 0; i < 20; i++ {
		out, err := pool.Call(context.Background(), "svc/Echo", []byte("hi"))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != "hi" {
			t.Fatalf("out = %q", out)
		}
	}
}

func TestPoolSurvivesChannelDeath(t *testing.T) {
	pool, _ := poolSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler}, 3)
	// Kill one member behind the pool's back.
	pool.mu.Lock()
	victim := pool.channels[0]
	pool.mu.Unlock()
	victim.Close()
	// All subsequent calls must still succeed (retry on another member).
	for i := 0; i < 10; i++ {
		if _, err := pool.Call(context.Background(), "svc/Echo", []byte("x")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestPoolKeepsChannelOnUnavailableReply sheds ten calls over a pool whose
// two members each carry a call the server has accepted. A shed call is an
// Unavailable reply over a healthy connection: the pool must hand it to the
// caller, not close the member under the accepted call and dial another.
func TestPoolKeepsChannelOnUnavailableReply(t *testing.T) {
	leakcheck.Check(t)
	started, release := make(chan struct{}, 1), make(chan struct{})
	pool, srv := poolSetup(t, Options{Workers: 1, ShedThreshold: 1}, map[string]Handler{
		"svc/Slow": func(_ context.Context, p []byte) ([]byte, error) {
			started <- struct{}{}
			<-release
			return p, nil
		},
	}, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// One call holds the only worker, the next waits in the queue; round
	// robin puts them on different members.
	accepted := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := pool.Call(ctx, "svc/Slow", nil)
			accepted <- err
		}()
		if i == 0 {
			<-started
		}
	}
	for srv.load() != 2 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		if _, err := pool.Call(ctx, "svc/Slow", nil); Code(err) != trace.Unavailable {
			t.Errorf("call %d past the shedding threshold: %v, want Unavailable", i, err)
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-accepted; err != nil {
			t.Errorf("a call the server had accepted: %v", err)
		}
	}
	if n := pool.size(); n != 2 {
		t.Errorf("pool has %d members after ten shed calls, want the 2 it dialed", n)
	}
}

func TestPoolHedgedAcrossMembers(t *testing.T) {
	var n atomic.Int32
	pool, _ := poolSetup(t, Options{Workers: 8}, map[string]Handler{
		"svc/Lumpy": func(ctx context.Context, p []byte) ([]byte, error) {
			if n.Add(1)%2 == 1 {
				select {
				case <-time.After(200 * time.Millisecond):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return []byte("ok"), nil
		},
	}, 2)
	start := time.Now()
	out, err := pool.CallHedged(context.Background(), "svc/Lumpy", []byte("q"), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" {
		t.Fatalf("out = %q", out)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Fatalf("hedge did not rescue the straggler: %v", time.Since(start))
	}
}

func TestPoolCallAfterClose(t *testing.T) {
	pool, _ := poolSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler}, 2)
	pool.Close()
	if _, err := pool.Call(context.Background(), "svc/Echo", []byte("x")); Code(err) != trace.Unavailable {
		t.Fatalf("err = %v", err)
	}
}

func TestPoolDialFailure(t *testing.T) {
	if _, err := NewPool("127.0.0.1:1", "x", 2, Options{}); err == nil {
		t.Fatal("expected dial failure")
	}
}

// --- Failure injection on the plain channel ---

func TestServerAbruptCloseFailsPending(t *testing.T) {
	opts := Options{}
	srv := NewServer(opts)
	srv.Register("svc/Hang", func(ctx context.Context, p []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	ch, err := Dial(l.Addr().String(), "x", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	done := make(chan error, 1)
	go func() {
		_, err := ch.Call(context.Background(), "svc/Hang", []byte("x"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	l.Close()
	// The handler waits on its context, which only Close can end: Close
	// must cancel it once closeGrace has passed, well before the call's
	// 30 s default deadline would.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	limit := time.After(closeGrace + 2*time.Second)
	select {
	case err := <-done:
		if c := Code(err); c != trace.Unavailable && c != trace.Cancelled {
			t.Fatalf("pending call ended %v (%v), want Unavailable or Cancelled", c, err)
		}
	case <-limit:
		t.Fatal("pending call still open past the close grace period")
	}
	select {
	case <-closed:
	case <-limit:
		t.Fatal("Close still waiting past the close grace period")
	}
}

func TestServerOverloadShedsLoad(t *testing.T) {
	// One worker and a burst larger than the receive queue: the overflow
	// must come back as NoResource rejections (the §4.4 "no resource"
	// class), not deadlock.
	release := make(chan struct{})
	opts := Options{Workers: 1}
	srv := NewServer(opts)
	srv.Register("svc/Slow", func(ctx context.Context, p []byte) ([]byte, error) {
		<-release
		return p, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // before Close, which waits for the handler
	ch, err := Dial(l.Addr().String(), "x", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	const burst = queueLen + 64
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := ch.Call(ctx, "svc/Slow", []byte("x"))
			errs <- err
		}()
	}
	// The worker holds at most one call and the queue queueLen more, so
	// at least the last burst-queueLen-1 arrivals are refused while the
	// handler is still blocked.
	for i := 0; i < burst-queueLen-1; i++ {
		if err := <-errs; Code(err) != trace.NoResource {
			t.Fatalf("call before release: %v, want NoResource", err)
		}
	}
	unblock()
	for i := burst - queueLen - 1; i < burst; i++ {
		if err := <-errs; err != nil && Code(err) != trace.NoResource {
			t.Errorf("call after release: %v", err)
		}
	}
}

func TestConcurrentCloseRace(t *testing.T) {
	ch, _ := testSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_, _ = ch.Call(ctx, "svc/Echo", []byte("x"))
		}()
	}
	wg.Add(2)
	go func() { defer wg.Done(); ch.Close() }()
	go func() { defer wg.Done(); ch.Close() }()
	wg.Wait() // must not panic or deadlock
}
