package stubby

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"
)

// TestLoadReportPiggyback drives a server whose handler blocks until
// released, so in-flight work accumulates, and checks the load report
// rides back on responses.
func TestLoadReportPiggyback(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	block := func(ctx context.Context, payload []byte) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return payload, nil
	}
	ch, srv := testSetup(t, Options{Workers: 8}, map[string]Handler{
		"svc/Block": block,
		"svc/Echo":  echoHandler,
	})

	if got := ch.reportedLoad(); got != 0 {
		t.Fatalf("reportedLoad before any call = %d", got)
	}

	// Park 4 calls in handlers.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = ch.Call(context.Background(), "svc/Block", []byte("x"))
		}()
	}
	for i := 0; i < 4; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("handlers did not start")
		}
	}

	if got := ch.inFlight(); got < 4 {
		t.Errorf("inFlight = %d with 4 parked calls", got)
	}
	if got := srv.load(); got < 4 {
		t.Errorf("server Load = %d with 4 parked handlers", got)
	}

	// A quick call while the others are parked must carry a load report
	// covering them.
	if _, err := ch.Call(context.Background(), "svc/Echo", []byte("probe")); err != nil {
		t.Fatal(err)
	}
	if got := ch.reportedLoad(); got < 4 {
		t.Errorf("reportedLoad after probe = %d, want >= 4", got)
	}

	close(release)
	wg.Wait()
}

// TestPoolLoadEndpoint checks the pool-level load arithmetic and that the
// pool satisfies the balancing Endpoint contract (compile-time via the
// loadbalance package is avoided here to keep stubby dependency-free; the
// cluster harness asserts it).
func TestPoolLoadEndpoint(t *testing.T) {
	srv := NewServer(Options{})
	srv.Register("svc/Echo", echoHandler)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	p, err := NewPool(l.Addr().String(), "test-cluster", 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if p.Addr() != l.Addr().String() {
		t.Errorf("Addr = %q", p.Addr())
	}
	if got := p.Load(); got != 0 {
		t.Errorf("idle pool Load = %d", got)
	}
	if _, err := p.Call(context.Background(), "svc/Echo", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if got := p.inFlight(); got != 0 {
		t.Errorf("inFlight after completed call = %d", got)
	}
	// reportedLoad reflects whatever the server reported; with an idle
	// server it must be small but is allowed to be nonzero (the probe call
	// itself may have been counted while in a handler).
	if got := p.reportedLoad(); got > 2 {
		t.Errorf("idle reportedLoad = %d", got)
	}
}
