package stubby

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"rpcscale/internal/trace"
)

// serverStreaming adapts the server-streaming shape these tests exercise
// onto a BidiHandler: the stream's first message is the request, and the
// handler only sends from then on.
func serverStreaming(h func(ctx context.Context, payload []byte, send func([]byte) error) error) BidiHandler {
	return func(ctx context.Context, st *Stream) error {
		payload, err := st.Recv()
		if err != nil && err != io.EOF {
			return err
		}
		// The handler never Recvs again, so payload stays valid.
		return h(ctx, payload, st.Send)
	}
}

// callStream is the client half: open, send the one request message,
// half-close, and leave the stream for the caller to Recv from.
func callStream(ctx context.Context, ch *Channel, method string, payload []byte) (*Stream, error) {
	st, err := ch.OpenStream(ctx, method)
	if err != nil {
		return nil, err
	}
	if err := st.Send(payload); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.CloseSend(); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// streamSetup starts a server with one streaming handler and returns a
// connected channel.
func streamSetup(t *testing.T, method string, h func(context.Context, []byte, func([]byte) error) error) *Channel {
	t.Helper()
	opts := Options{Workers: 8}
	srv := NewServer(opts)
	srv.RegisterBidi(method, serverStreaming(h))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	ch, err := Dial(l.Addr().String(), "stream-test", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ch.Close()
		srv.Close()
	})
	return ch
}

func TestStreamBasic(t *testing.T) {
	ch := streamSetup(t, "svc/List", func(ctx context.Context, p []byte, send func([]byte) error) error {
		for i := 0; i < 5; i++ {
			if err := send([]byte(fmt.Sprintf("%s-%d", p, i))); err != nil {
				return err
			}
		}
		return nil
	})
	st, err := callStream(context.Background(), ch, "svc/List", []byte("item"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		msg, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(msg))
	}
	if len(got) != 5 || got[0] != "item-0" || got[4] != "item-4" {
		t.Fatalf("got %v", got)
	}
	// Recv after EOF keeps returning EOF.
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("post-EOF Recv = %v", err)
	}
}

func TestStreamEmpty(t *testing.T) {
	ch := streamSetup(t, "svc/Empty", func(ctx context.Context, p []byte, send func([]byte) error) error {
		return nil
	})
	st, err := callStream(context.Background(), ch, "svc/Empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("empty stream Recv = %v", err)
	}
}

func TestStreamServerError(t *testing.T) {
	ch := streamSetup(t, "svc/Fail", func(ctx context.Context, p []byte, send func([]byte) error) error {
		if err := send([]byte("one")); err != nil {
			return err
		}
		return Errorf(trace.EntityNotFound, "ran out")
	})
	st, err := callStream(context.Background(), ch, "svc/Fail", nil)
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := st.Recv(); err != nil || string(msg) != "one" {
		t.Fatalf("first item: %q %v", msg, err)
	}
	_, err = st.Recv()
	if Code(err) != trace.EntityNotFound {
		t.Fatalf("final status = %v", err)
	}
}

func TestStreamClientClose(t *testing.T) {
	started := make(chan struct{}, 1)
	cancelled := make(chan struct{})
	ch := streamSetup(t, "svc/Forever", func(ctx context.Context, p []byte, send func([]byte) error) error {
		started <- struct{}{}
		for i := 0; ; i++ {
			if err := send([]byte("x")); err != nil {
				close(cancelled)
				return err
			}
			select {
			case <-time.After(time.Millisecond):
			case <-ctx.Done():
				close(cancelled)
				return ctx.Err()
			}
		}
	})
	st, err := callStream(context.Background(), ch, "svc/Forever", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("server handler not cancelled by stream Close")
	}
	if _, err := st.Recv(); Code(err) != trace.Cancelled {
		t.Fatalf("Recv after Close = %v", err)
	}
}

func TestStreamDeadline(t *testing.T) {
	ch := streamSetup(t, "svc/Slow", func(ctx context.Context, p []byte, send func([]byte) error) error {
		<-ctx.Done()
		return ctx.Err()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	st, err := callStream(ctx, ch, "svc/Slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Recv()
	if err == nil || err == io.EOF {
		t.Fatalf("expected deadline error, got %v", err)
	}
}

func TestStreamLargeVolume(t *testing.T) {
	const items = 500
	payload := make([]byte, 2048)
	ch := streamSetup(t, "svc/Bulk", func(ctx context.Context, p []byte, send func([]byte) error) error {
		for i := 0; i < items; i++ {
			if err := send(payload); err != nil {
				return err
			}
		}
		return nil
	})
	st, err := callStream(context.Background(), ch, "svc/Bulk", nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		msg, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(msg) != len(payload) {
			t.Fatalf("item %d has %d bytes", n, len(msg))
		}
		n++
	}
	if n != items {
		t.Fatalf("received %d items, want %d", n, items)
	}
}

func TestStreamChannelCloseFailsStream(t *testing.T) {
	started := make(chan struct{}, 1)
	ch := streamSetup(t, "svc/Hang", func(ctx context.Context, p []byte, send func([]byte) error) error {
		started <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	})
	st, err := callStream(context.Background(), ch, "svc/Hang", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ch.Close()
	done := make(chan error, 1)
	go func() {
		_, err := st.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || err == io.EOF {
			t.Fatalf("Recv after channel close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream Recv hung after channel close")
	}
}

func TestStreamUnknownMethod(t *testing.T) {
	ch, _ := testSetup(t, Options{}, nil) // unary server, no stream handlers
	st, err := callStream(context.Background(), ch, "svc/Nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Recv()
	if Code(err) != trace.EntityNotFound {
		t.Fatalf("unknown stream method = %v", err)
	}
}

func TestStreamAndUnaryCoexist(t *testing.T) {
	opts := Options{Workers: 8}
	srv := NewServer(opts)
	srv.Register("svc/Echo", echoHandler)
	srv.RegisterBidi("svc/Stream", serverStreaming(func(ctx context.Context, p []byte, send func([]byte) error) error {
		return send([]byte("si"))
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	ch, err := Dial(l.Addr().String(), "x", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	var unaryErrs atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := ch.Call(context.Background(), "svc/Echo", []byte("u")); err != nil {
				unaryErrs.Add(1)
			}
		}
	}()
	for i := 0; i < 20; i++ {
		st, err := callStream(context.Background(), ch, "svc/Stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		if msg, err := st.Recv(); err != nil || string(msg) != "si" {
			t.Fatalf("stream item %q %v", msg, err)
		}
		if _, err := st.Recv(); err != io.EOF {
			t.Fatalf("stream end = %v", err)
		}
	}
	<-done
	if unaryErrs.Load() != 0 {
		t.Fatalf("%d unary calls failed alongside streams", unaryErrs.Load())
	}
}

func TestRegisterBidiConflicts(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	srv.Register("svc/M", echoHandler)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("stream over unary registration should panic")
			}
		}()
		srv.RegisterBidi("svc/M", func(context.Context, *Stream) error { return nil })
	}()
	srv.RegisterBidi("svc/S", func(context.Context, *Stream) error { return nil })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unary over stream registration should panic")
			}
		}()
		srv.Register("svc/S", echoHandler)
	}()
}
