package stubby

// Striped-connection robustness (DESIGN.md §16): bulk frames and stream
// chunks interleave across K TCP connections, so reassembly must hold
// per-stripe affinity, and a single stripe dying must condemn the whole
// logical channel with a coded *Status — promptly, never a hang. Every
// test here is deadline-bounded.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"rpcscale/internal/leakcheck"
	"rpcscale/internal/trace"
)

// stripedSetup starts an echo server plus a bidi pump and returns a
// channel dialed with the given stripe count.
func stripedSetup(t *testing.T, stripes int) *Channel {
	t.Helper()
	leakcheck.Check(t)
	opts := Options{Workers: 4, ConnStripes: stripes}
	srv := NewServer(opts)
	srv.Register("stripe/Echo", func(ctx context.Context, p []byte) ([]byte, error) {
		return p, nil
	})
	srv.RegisterBidi("stripe/Pump", func(ctx context.Context, st *Stream) error {
		for {
			msg, err := st.Recv()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := st.Send(msg); err != nil {
				return err
			}
		}
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	ch, err := Dial(l.Addr().String(), "stripe-test", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ch.Close()
		srv.Close()
	})
	return ch
}

// TestStripedInterleavedReassembly drives concurrent bulk calls and
// streams over a 3-stripe channel: chunk frames from many transfers are
// in flight on every stripe at once, and each transfer must reassemble
// its own bytes exactly (per-call stripe affinity keeps one transfer's
// chunks ordered on one connection).
func TestStripedInterleavedReassembly(t *testing.T) {
	ch := stripedSetup(t, 3)
	if len(ch.conns) != 3 {
		t.Fatalf("dialed %d stripes, want 3", len(ch.conns))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	// Bulk callers: distinct pattern per caller so cross-stripe mixups
	// corrupt payloads detectably.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := make([]byte, 96<<10)
			for i := range payload {
				payload[i] = byte(i*7 + w*131)
			}
			for i := 0; i < 8; i++ {
				out, err := ch.Call(ctx, "stripe/Echo", payload, WithBulkLane(true))
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(out, payload) {
					errs <- Errorf(trace.Internal, "caller %d: bulk echo corrupted", w)
					FreeResponse(out)
					return
				}
				FreeResponse(out)
			}
		}(w)
	}
	// Stream pumpers interleave chunk frames with the bulk transfers.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st, err := ch.OpenStream(ctx, "stripe/Pump")
			if err != nil {
				errs <- err
				return
			}
			defer st.Close()
			msg := make([]byte, 8<<10)
			for i := range msg {
				msg[i] = byte(i + w)
			}
			for i := 0; i < 20; i++ {
				if err := st.Send(msg); err != nil {
					errs <- err
					return
				}
				got, err := st.Recv()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, msg) {
					errs <- Errorf(trace.Internal, "stream %d: echo corrupted", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStripedConnTruncationFailsCoded kills one stripe's TCP connection —
// each of the three in turn — while bulk transfers are mid-flight on all of
// them: every outstanding and subsequent call must fail with a coded
// *Status within the deadline — a truncated chunk sequence on one stripe
// must never strand a caller.
func TestStripedConnTruncationFailsCoded(t *testing.T) {
	for k := 0; k < 3; k++ {
		t.Run(fmt.Sprintf("stripe%d", k), func(t *testing.T) { stripeKill(t, k) })
	}
}

func stripeKill(t *testing.T, k int) {
	ch := stripedSetup(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	var wg sync.WaitGroup
	codes := make(chan error, 16)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ch.Call(ctx, "stripe/Echo", payload, WithBulkLane(true)); err != nil {
					codes <- err
					return
				}
			}
		}()
	}
	// Let transfers get in flight on every stripe, then cut one stripe's
	// socket out from under them, truncating its in-flight chunk frames.
	time.Sleep(50 * time.Millisecond)
	ch.conns[k].shutdown()
	wg.Wait()
	close(stop)
	close(codes)
	n := 0
	for err := range codes {
		n++
		var st *Status
		if !asStatus(err, &st) {
			t.Fatalf("stripe-kill error not a *Status: %v", err)
		}
		if st.Code == trace.OK {
			t.Fatalf("stripe-kill produced an OK status: %v", err)
		}
	}
	if n == 0 {
		t.Fatal("no caller observed the stripe failure")
	}
	// The condemned channel fails new calls fast with a coded status.
	if _, err := ch.Call(ctx, "stripe/Echo", []byte("x")); Code(err) == trace.OK {
		t.Fatalf("call on condemned channel: %v, want coded failure", err)
	}
	if ctx.Err() != nil {
		t.Fatal("test overran its deadline: a caller hung on the truncated stripe")
	}
}

// asStatus reports whether err unwraps to a *Status.
func asStatus(err error, out **Status) bool {
	for ; err != nil; err = unwrap(err) {
		if st, ok := err.(*Status); ok {
			*out = st
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}
