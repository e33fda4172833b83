package stubby

// Transfers under interleaving and connection death (DESIGN.md §16): bulk
// frames and stream chunks of many transfers interleave on one socket, or
// across a pool's sockets, and each must reassemble its own bytes; a
// socket cut mid-transfer must end every caller with a coded *Status —
// promptly, never a hang — and a pool must heal around it. Every test here
// is deadline-bounded.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"rpcscale/internal/leakcheck"
	"rpcscale/internal/trace"
)

// transferServer starts an echo server plus a bidi pump and returns its
// address.
func transferServer(t *testing.T) string {
	t.Helper()
	leakcheck.Check(t)
	srv := NewServer(Options{Workers: 4})
	srv.Register("xfer/Echo", func(ctx context.Context, p []byte) ([]byte, error) {
		return p, nil
	})
	srv.RegisterBidi("xfer/Pump", func(ctx context.Context, st *Stream) error {
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
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// transferChannel dials one channel to a fresh transfer server.
func transferChannel(t *testing.T) *Channel {
	t.Helper()
	ch, err := Dial(transferServer(t), "xfer-test", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ch.Close() })
	return ch
}

// transferPool dials a size-member pool to a fresh transfer server.
func transferPool(t *testing.T, size int) *Pool {
	t.Helper()
	pool, err := NewPool(transferServer(t), "xfer-test", size, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// caller is what a Channel and a Pool both offer.
type caller interface {
	Call(ctx context.Context, method string, payload []byte) ([]byte, error)
	OpenStream(ctx context.Context, method string) (*Stream, error)
}

// TestInterleavedReassembly drives 6 bulk callers and 3 stream pumps at
// once, over one channel and over a 3-member pool: chunk frames of many
// transfers are in flight on every socket at once, and each transfer must
// reassemble its own bytes exactly.
func TestInterleavedReassembly(t *testing.T) {
	t.Run("channel", func(t *testing.T) { interleave(t, transferChannel(t)) })
	t.Run("pool", func(t *testing.T) { interleave(t, transferPool(t, 3)) })
}

func interleave(t *testing.T, c caller) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	// Bulk callers: a distinct pattern per caller, so transfers that mix
	// up their chunks corrupt payloads detectably.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := make([]byte, 96<<10)
			for i := range payload {
				payload[i] = byte(i*7 + w*131)
			}
			for i := 0; i < 8; i++ {
				out, err := c.Call(ctx, "xfer/Echo", payload)
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
			st, err := c.OpenStream(ctx, "xfer/Pump")
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

// TestConnTruncationFailsCoded cuts a socket out from under bulk transfers
// in flight, truncating their chunk sequences. On a channel every
// outstanding and later call must fail with a coded *Status before the
// deadline; on a pool every call must succeed or fail coded, and the pool
// must be back to full strength.
func TestConnTruncationFailsCoded(t *testing.T) {
	t.Run("channel", func(t *testing.T) {
		ch := transferChannel(t)
		errs := bulkLoad(t, ch, func() { ch.tr.close() }, true)
		if len(errs) == 0 {
			t.Fatal("no caller observed the connection failure")
		}
		// The dead channel fails new calls fast with a coded status.
		if _, err := ch.Call(context.Background(), "xfer/Echo", []byte("x")); Code(err) == trace.OK {
			t.Fatalf("call on a dead channel: %v, want a coded failure", err)
		}
	})
	t.Run("pool", func(t *testing.T) {
		pool := transferPool(t, 3)
		bulkLoad(t, pool, func() {
			pool.mu.Lock()
			victim := pool.channels[1]
			pool.mu.Unlock()
			victim.tr.close()
		}, false)
		// Three consecutive picks visit every member, replacing a dead one.
		for i := 0; i < 3; i++ {
			if _, err := pool.Call(context.Background(), "xfer/Echo", []byte("x")); err != nil {
				t.Fatalf("call %d after the load: %v", i, err)
			}
		}
		if n := pool.size(); n != 3 {
			t.Fatalf("pool has %d live members, want 3", n)
		}
	})
}

// bulkLoad runs four 256 KiB bulk callers on c, runs kill once transfers
// are in flight, and returns every error the callers saw, each checked to
// be a coded *Status. With stopOnErr each caller ends at its first error;
// otherwise callers keep going for a while after the kill.
func bulkLoad(t *testing.T, c caller, kill func(), stopOnErr bool) []error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
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
				out, err := c.Call(ctx, "xfer/Echo", payload)
				if err == nil {
					FreeResponse(out)
					continue
				}
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				if stopOnErr {
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	kill()
	if !stopOnErr {
		time.Sleep(100 * time.Millisecond)
		close(stop)
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("test overran its deadline: a caller hung on the cut connection")
	}
	for _, err := range errs {
		var st *Status
		if !errors.As(err, &st) || st.Code == trace.OK {
			t.Fatalf("error after the cut is not a coded *Status: %v", err)
		}
	}
	return errs
}

// TestPoolOpenStreamSpreads opens one stream per member of a 3-member pool:
// round-robin puts each on its own connection, and each carries traffic.
func TestPoolOpenStreamSpreads(t *testing.T) {
	pool := transferPool(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		st, err := pool.OpenStream(ctx, "xfer/Pump")
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if got, err := st.Recv(); err != nil || string(got) != "ping" {
			t.Fatalf("stream %d: %q, %v", i, got, err)
		}
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for i, ch := range pool.channels {
		ch.streams.mu.Lock()
		n := len(ch.streams.m)
		ch.streams.mu.Unlock()
		if n != 1 {
			t.Errorf("member %d carries %d streams, want 1", i, n)
		}
	}
}

// TestPoolCallHedgedReplacesDeadMember closes each member of a 2-member
// pool in turn and makes 100 hedged calls. Each picks its primary in turn
// and replaces a dead member it picks, so every call succeeds and the pool
// is whole again.
func TestPoolCallHedgedReplacesDeadMember(t *testing.T) {
	for victim := 0; victim < 2; victim++ {
		pool, _ := poolSetup(t, Options{}, map[string]Handler{"svc/Echo": echoHandler}, 2)
		pool.mu.Lock()
		dead := pool.channels[victim]
		pool.mu.Unlock()
		dead.Close()
		failed := 0
		for i := 0; i < 100; i++ {
			if _, err := pool.CallHedged(context.Background(), "svc/Echo", []byte("x"), 5*time.Millisecond); err != nil {
				failed++
			}
		}
		if failed > 0 {
			t.Errorf("member %d closed: %d of 100 hedged calls failed", victim, failed)
		}
		if n := pool.size(); n != 2 {
			t.Errorf("member %d closed: pool has %d live members, want 2", victim, n)
		}
	}
}
