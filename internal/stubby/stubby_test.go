package stubby

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/leakcheck"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

// testSetup starts a server on a loopback listener, registers the given
// handlers, and returns a connected channel. Everything is torn down with
// t.Cleanup.
func testSetup(t *testing.T, opts Options, handlers map[string]Handler) (*Channel, *Server) {
	t.Helper()
	leakcheck.Check(t)
	srv := NewServer(opts)
	for m, h := range handlers {
		srv.Register(m, h)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	ch, err := Dial(l.Addr().String(), "test-cluster", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ch.Close()
		srv.Close()
	})
	return ch, srv
}

func echoHandler(ctx context.Context, payload []byte) ([]byte, error) {
	return payload, nil
}

func TestUnaryCall(t *testing.T) {
	ch, _ := testSetup(t, Options{}, map[string]Handler{"svc.Echo/Echo": echoHandler})
	out, err := ch.Call(context.Background(), "svc.Echo/Echo", []byte("hello rpc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hello rpc" {
		t.Fatalf("echo = %q", out)
	}
}

func TestConcurrentCalls(t *testing.T) {
	ch, _ := testSetup(t, Options{Workers: 16}, map[string]Handler{"svc/Echo": echoHandler})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(i)}, 100+i)
			out, err := ch.Call(context.Background(), "svc/Echo", payload)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(out, payload) {
				errs <- errors.New("payload mismatch")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestUnknownMethod(t *testing.T) {
	ch, _ := testSetup(t, Options{}, nil)
	_, err := ch.Call(context.Background(), "svc/Nope", []byte("x"))
	if Code(err) != trace.EntityNotFound {
		t.Fatalf("got %v, want EntityNotFound", err)
	}
}

func TestHandlerError(t *testing.T) {
	ch, _ := testSetup(t, Options{}, map[string]Handler{
		"svc/Fail": func(ctx context.Context, p []byte) ([]byte, error) {
			return nil, Errorf(trace.NoPermission, "denied for %q", p)
		},
	})
	_, err := ch.Call(context.Background(), "svc/Fail", []byte("user"))
	st := StatusFromError(err)
	if st.Code != trace.NoPermission {
		t.Fatalf("code = %v", st.Code)
	}
	if st.Message == "" {
		t.Fatal("message lost")
	}
}

func TestDeadlinePropagation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ch, _ := testSetup(t, Options{}, map[string]Handler{
		"svc/Slow": func(ctx context.Context, p []byte) ([]byte, error) {
			select {
			case <-ctx.Done(): // server-side ctx must expire
				return nil, ctx.Err()
			case <-release:
				return p, nil
			}
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ch.Call(ctx, "svc/Slow", []byte("x"))
	if Code(err) != trace.DeadlineExceeded {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not enforced promptly: %v", elapsed)
	}
}

func TestClientCancellation(t *testing.T) {
	started := make(chan struct{}, 1)
	ch, _ := testSetup(t, Options{}, map[string]Handler{
		"svc/Block": func(ctx context.Context, p []byte) ([]byte, error) {
			started <- struct{}{}
			<-ctx.Done() // must be cancelled via FrameCancel
			return nil, ctx.Err()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ch.Call(ctx, "svc/Block", []byte("x"))
		done <- err
	}()
	<-started
	cancel()
	err := <-done
	if Code(err) != trace.Cancelled {
		t.Fatalf("got %v, want Cancelled", err)
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	opts := Options{Compression: compressor.Flate, CompressThreshold: 64}
	big := bytes.Repeat([]byte("compressible! "), 1000)
	ch, _ := testSetup(t, opts, map[string]Handler{"svc/Echo": echoHandler})
	out, err := ch.Call(context.Background(), "svc/Echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, big) {
		t.Fatal("compressed payload corrupted")
	}
}

// TestCompressionStatsRecorded sends a compressible echo and reads the
// shared counters: request and response both travelled compressed. The
// second payload is why nothing stands in front of the encoder: every byte
// value is equally frequent in it, so an entropy probe on its first bytes
// calls it incompressible, and the encoder shrinks it more than tenfold.
func TestCompressionStatsRecorded(t *testing.T) {
	for name, payload := range map[string][]byte{
		"text":           bytes.Repeat([]byte("abcabcabc "), 500),
		"flat-histogram": patternPayload(4 << 10),
	} {
		t.Run(name, func(t *testing.T) {
			cs := &compressor.Stats{}
			opts := Options{Compression: compressor.Flate, CompressThreshold: 64, CompressorStats: cs}
			ch, _ := testSetup(t, opts, map[string]Handler{"svc/Echo": echoHandler})
			if _, err := ch.Call(context.Background(), "svc/Echo", payload); err != nil {
				t.Fatal(err)
			}
			if c, d := cs.CompressCalls.Load(), cs.DecompressCalls.Load(); c != 2 || d != 2 {
				t.Errorf("%d compress calls, %d decompress calls, want 2 and 2", c, d)
			}
			if in, out := cs.BytesIn.Load(), cs.BytesOut.Load(); out*10 > in {
				t.Errorf("%d bytes in, %d out: want at most a tenth", in, out)
			}
		})
	}
}

func TestTraceSpansEmitted(t *testing.T) {
	col := trace.New()
	ch, _ := testSetup(t, Options{Collector: col, ClusterName: "client-cl"},
		map[string]Handler{"svc.S/M": func(ctx context.Context, p []byte) ([]byte, error) {
			time.Sleep(5 * time.Millisecond) // measurable app time
			return []byte("resp"), nil
		}})
	if _, err := ch.Call(context.Background(), "svc.S/M", []byte("req!")); err != nil {
		t.Fatal(err)
	}
	spans := col.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	s := spans[0]
	if s.Method != "svc.S/M" || s.Service != "svc" {
		t.Errorf("identity = %q/%q", s.Method, s.Service)
	}
	if s.ClientCluster != "client-cl" || s.ServerCluster != "test-cluster" {
		t.Errorf("placement = %q -> %q", s.ClientCluster, s.ServerCluster)
	}
	if s.RequestBytes != 4 || s.ResponseBytes != 4 {
		t.Errorf("sizes = %d/%d", s.RequestBytes, s.ResponseBytes)
	}
	if got := s.Breakdown[trace.ServerApp]; got < 4*time.Millisecond {
		t.Errorf("app time = %v, want >= ~5ms", got)
	}
	if s.Breakdown.Total() < s.Breakdown[trace.ServerApp] {
		t.Error("total < app component")
	}
	if s.Err != trace.OK {
		t.Errorf("err = %v", s.Err)
	}
	// Every component must be non-negative.
	for c, v := range s.Breakdown {
		if v < 0 {
			t.Errorf("component %v negative: %v", trace.Component(c), v)
		}
	}
}

func TestNestedTracePropagation(t *testing.T) {
	col := trace.New()
	opts := Options{Collector: col}

	// Backend server.
	backendSrv := NewServer(opts)
	backendSrv.Register("backend/Leaf", echoHandler)
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go backendSrv.Serve(bl)
	defer backendSrv.Close()

	backendCh, err := Dial(bl.Addr().String(), "backend-cl", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer backendCh.Close()

	// Frontend server whose handler fans out to the backend.
	frontSrv := NewServer(opts)
	frontSrv.Register("front/Root", func(ctx context.Context, p []byte) ([]byte, error) {
		// The ctx carries the incoming trace context; the nested call
		// must become a child span.
		return backendCh.Call(ctx, "backend/Leaf", p)
	})
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go frontSrv.Serve(fl)
	defer frontSrv.Close()

	frontCh, err := Dial(fl.Addr().String(), "front-cl", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer frontCh.Close()

	if _, err := frontCh.Call(context.Background(), "front/Root", []byte("nested")); err != nil {
		t.Fatal(err)
	}

	spans := col.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	trees := trace.BuildGraphs(spans)
	if len(trees) != 1 {
		t.Fatalf("trees = %d, want 1 (trace not propagated)", len(trees))
	}
	root := trees[0].Root
	if root.Span.Method != "front/Root" {
		t.Errorf("root = %q", root.Span.Method)
	}
	if len(root.Children) != 1 || root.Children[0].Span.Method != "backend/Leaf" {
		t.Errorf("children = %+v", root.Children)
	}
	// Parent app time must cover the nested call (paper §2.1: nested call
	// time counts as parent application time).
	if root.Span.Breakdown[trace.ServerApp] < root.Children[0].Span.Latency() {
		t.Error("parent app time does not include nested call")
	}
}

func TestHedgedCallWinner(t *testing.T) {
	col := trace.New()
	var n int32
	var mu sync.Mutex
	ch, _ := testSetup(t, Options{Collector: col}, map[string]Handler{
		"svc/Sometimes": func(ctx context.Context, p []byte) ([]byte, error) {
			mu.Lock()
			n++
			first := n == 1
			mu.Unlock()
			if first {
				// First leg hangs until cancelled.
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return []byte("fast"), nil
		},
	})
	out, err := ch.CallHedged(context.Background(), "svc/Sometimes", []byte("q"), 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "fast" {
		t.Fatalf("out = %q", out)
	}
	// Wait for the cancelled leg's span to land.
	deadline := time.After(2 * time.Second)
	for {
		spans := col.Spans()
		var hedged, cancelled bool
		for _, s := range spans {
			if s.Hedged {
				hedged = true
			}
			if s.Err == trace.Cancelled || s.Err == trace.DeadlineExceeded {
				cancelled = true
			}
		}
		if hedged && cancelled {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("hedge spans incomplete: %d spans", len(spans))
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestHedgedCallPrimaryFastPath(t *testing.T) {
	ch, _ := testSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler})
	out, err := ch.CallHedged(context.Background(), "svc/Echo", []byte("quick"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "quick" {
		t.Fatalf("out = %q", out)
	}
}

func TestHedgedCallBothFail(t *testing.T) {
	ch, _ := testSetup(t, Options{}, map[string]Handler{
		"svc/Fail": func(ctx context.Context, p []byte) ([]byte, error) {
			return nil, Errorf(trace.Internal, "boom")
		},
	})
	_, err := ch.CallHedged(context.Background(), "svc/Fail", []byte("q"), 5*time.Millisecond)
	if Code(err) != trace.Internal {
		t.Fatalf("got %v, want Internal", err)
	}
}

// TestRetiredFrameTagsDropped: tags 0x04 and 0x05 (once ping and pong)
// still parse, and either end drops such a frame from a raw peer, returns
// its buffer, and serves the next call on the connection.
func TestRetiredFrameTagsDropped(t *testing.T) {
	retired := []byte{0x04, 0x05}
	t.Run("client", func(t *testing.T) {
		leakcheck.Check(t)
		outstanding := poolBalance()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		served := make(chan struct{})
		go func() {
			defer close(served)
			nc, err := l.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			peer := newRawPeer(t, nc, "s2c", "c2s")
			for _, typ := range retired {
				if err := peer.tr.send(typ, 0, []byte("retired")); err != nil {
					t.Errorf("peer: %v", err)
					return
				}
			}
			peer.serve(func(id uint64, req *request) error {
				return peer.respond(id, &response{Payload: req.Payload})
			})
		}()
		ch, err := Dial(l.Addr().String(), "raw", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if out, err := ch.Call(context.Background(), "svc/Echo", []byte("after")); err != nil || string(out) != "after" {
			t.Fatalf("call after retired frames: %q, %v", out, err)
		}
		ch.Close()
		<-served
		if n := outstanding(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	})
	t.Run("server", func(t *testing.T) {
		leakcheck.Check(t)
		outstanding := poolBalance()
		srv := NewServer(Options{})
		srv.Register("svc/Echo", echoHandler)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		defer srv.Close()
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		peer := newRawPeer(t, nc, "c2s", "s2c")
		for _, typ := range retired {
			if err := peer.tr.send(typ, 0, []byte("retired")); err != nil {
				t.Fatal(err)
			}
		}
		env := appendRequest(nil, &request{Method: "svc/Echo", Payload: []byte("after"), Deadline: time.Minute})
		if err := peer.tr.send(wire.FrameRequest, 1, env); err != nil {
			t.Fatal(err)
		}
		if resp := peer.awaitResponse(1); resp.Code != trace.OK || string(resp.Payload) != "after" {
			t.Fatalf("call after retired frames: code %v, %q", resp.Code, resp.Payload)
		}
		nc.Close()
		srv.Close()
		if n := outstanding(); n != 0 {
			t.Errorf("%d pooled buffers outstanding", n)
		}
	})
}

func TestChannelCloseFailsPending(t *testing.T) {
	ch, _ := testSetup(t, Options{}, map[string]Handler{
		"svc/Hang": func(ctx context.Context, p []byte) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	done := make(chan error, 1)
	go func() {
		_, err := ch.Call(context.Background(), "svc/Hang", []byte("x"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	ch.Close()
	select {
	case err := <-done:
		if Code(err) != trace.Unavailable {
			t.Fatalf("got %v, want Unavailable", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call not failed by Close")
	}
}

// TestServerCloseClosesIdleConnections makes one call and closes the
// server: the idle channel must see its connection go within a second,
// because Close takes the server's side of every connection down with it
// rather than leaving its socket and loops to the client's next send.
// leakcheck runs with the channel closed only after that.
func TestServerCloseClosesIdleConnections(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer(Options{})
	srv.Register("svc/Echo", echoHandler)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	ch, err := Dial(l.Addr().String(), "c", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Call(context.Background(), "svc/Echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	select {
	case <-ch.closed:
	case <-time.After(time.Second):
		t.Error("the channel is still open 1 s after its server closed")
	}
	t.Cleanup(func() { ch.Close() })
}

// TestServerCloseDrainsInFlight closes a server while a handler runs: a
// call arriving meanwhile is refused Unavailable at once, the running call
// still gets its response, and Close waits for it.
func TestServerCloseDrainsInFlight(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	ch, srv := testSetup(t, Options{}, map[string]Handler{
		"svc/Echo": echoHandler,
		"svc/Slow": func(_ context.Context, p []byte) ([]byte, error) {
			close(started)
			<-release
			return p, nil
		},
	})
	owed := make(chan error, 1)
	go func() {
		out, err := ch.Call(context.Background(), "svc/Slow", []byte("owed"))
		if err == nil && string(out) != "owed" {
			err = errors.New("wrong reply: " + string(out))
		}
		owed <- err
	}()
	<-started
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	<-srv.closed
	if _, err := ch.Call(context.Background(), "svc/Echo", []byte("late")); Code(err) != trace.Unavailable {
		t.Errorf("call while the server closes: %v, want Unavailable", err)
	}
	select {
	case <-closed:
		t.Error("Close returned with a handler still running")
	default:
	}
	close(release)
	if err := <-owed; err != nil {
		t.Errorf("the call in flight when Close began: %v", err)
	}
	<-closed
}

// TestClientCloseCancelsHandler closes a channel while its call's handler
// waits on its context: the handler must see the context end within a
// second of the client going, not at the call's 30 s default deadline.
func TestClientCloseCancelsHandler(t *testing.T) {
	started, cancelled := make(chan struct{}), make(chan struct{})
	ch, _ := testSetup(t, Options{}, map[string]Handler{
		"svc/Block": func(ctx context.Context, p []byte) ([]byte, error) {
			close(started)
			<-ctx.Done()
			close(cancelled)
			return nil, ctx.Err()
		},
	})
	res := make(chan error, 1)
	go func() {
		_, err := ch.Call(context.Background(), "svc/Block", nil)
		res <- err
	}()
	<-started
	ch.Close()
	if err := <-res; Code(err) != trace.Unavailable {
		t.Errorf("call on a closed channel: %v, want Unavailable", err)
	}
	select {
	case <-cancelled:
	case <-time.After(time.Second):
		t.Error("the handler's context is still live 1 s after its client closed")
	}
}

func TestCallAfterClose(t *testing.T) {
	ch, _ := testSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler})
	ch.Close()
	_, err := ch.Call(context.Background(), "svc/Echo", []byte("x"))
	if Code(err) != trace.Unavailable {
		t.Fatalf("got %v, want Unavailable", err)
	}
}

func TestServiceOf(t *testing.T) {
	cases := map[string]string{
		"networkdisk.Disk/Write": "networkdisk",
		"svc/M":                  "svc",
		"bare":                   "bare",
	}
	for in, want := range cases {
		if got := serviceOf(in); got != want {
			t.Errorf("serviceOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	srv.Register("svc/M", echoHandler)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	srv.Register("svc/M", echoHandler)
}

func TestStatusHelpers(t *testing.T) {
	if Code(nil) != trace.OK {
		t.Error("nil error should be OK")
	}
	err := Errorf(trace.NoResource, "n=%d", 5)
	if Code(err) != trace.NoResource {
		t.Error("code lost")
	}
	if StatusFromError(errors.New("plain")).Code != trace.Internal {
		t.Error("plain errors should map to Internal")
	}
	var s *Status = StatusFromError(err)
	if s.Error() == "" {
		t.Error("Error() empty")
	}
}

func TestLargePayload(t *testing.T) {
	ch, _ := testSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler})
	big := make([]byte, 2<<20) // 2 MB, beyond the paper's P99 response
	for i := range big {
		big[i] = byte(i * 7)
	}
	out, err := ch.Call(context.Background(), "svc/Echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, big) {
		t.Fatal("large payload corrupted")
	}
}

func TestWrongSecretFailsCleanly(t *testing.T) {
	srv := NewServer(Options{Secret: []byte("server-secret")})
	srv.Register("svc/Echo", echoHandler)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	ch, err := Dial(l.Addr().String(), "c", Options{Secret: []byte("client-secret")})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err = ch.Call(ctx, "svc/Echo", []byte("x"))
	if err == nil {
		t.Fatal("mismatched secrets should fail")
	}
}
