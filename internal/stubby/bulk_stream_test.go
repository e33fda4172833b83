package stubby

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"rpcscale/internal/faultplane"
	"rpcscale/internal/leakcheck"
	"rpcscale/internal/secure"
	"rpcscale/internal/testutil"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

// bidiSetup starts a server with one bidirectional handler and returns a
// connected channel.
func bidiSetup(t *testing.T, opts Options, method string, h BidiHandler) *Channel {
	t.Helper()
	leakcheck.Check(t)
	srv := NewServer(opts)
	srv.RegisterBidi(method, h)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	ch, err := Dial(l.Addr().String(), "bulk-test", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ch.Close()
		srv.Close()
	})
	return ch
}

// echoSetup starts a unary echo server and returns a connected channel.
func echoSetup(t *testing.T, opts Options) *Channel {
	t.Helper()
	leakcheck.Check(t)
	srv := NewServer(opts)
	srv.Register("bulk/Echo", func(ctx context.Context, p []byte) ([]byte, error) {
		return p, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	ch, err := Dial(l.Addr().String(), "bulk-test", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ch.Close()
		srv.Close()
	})
	return ch
}

func patternPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// TestBulkUnaryRoundTrip drives unary echoes across the bulk-lane
// threshold and chunking boundaries: below threshold (inline envelope),
// at threshold, exactly one chunk, one byte past a chunk, and several
// chunks.
func TestBulkUnaryRoundTrip(t *testing.T) {
	ch := echoSetup(t, Options{Workers: 4})
	sizes := []int{
		1024,              // inline envelope path
		16 << 10,          // exactly the default threshold: first bulk size
		bulkChunkSize,     // exactly one chunk
		bulkChunkSize + 1, // two chunks, second of 1 byte
		300 << 10,         // several chunks
	}
	for _, n := range sizes {
		payload := patternPayload(n)
		got, err := ch.Call(context.Background(), "bulk/Echo", payload)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: echo mismatch (got %d bytes)", n, len(got))
		}
	}
}

// TestBulkLaneRetry: a retried attempt takes the lane its payload's size
// picks, as the first did. The client-scope fault plane rejects the first
// attempt before it seals anything; the second must still take the bulk
// lane: an envelope and a chunk, two seals, where the inline envelope is
// one.
func TestBulkLaneRetry(t *testing.T) {
	const method = "bulk/Echo"
	payload := patternPayload(bulkThreshold)
	mkInjector := func(seed uint64) *faultplane.Injector {
		return faultplane.New(faultplane.Config{
			Seed:  seed,
			Rules: []faultplane.Rule{{Methods: method, RejectRate: 0.5}},
		})
	}
	seed := findSeed(t, func(s uint64) bool {
		inj := mkInjector(s)
		d0 := inj.Decide(faultplane.ScopeClient, method, faultplane.Key{Seq: 0, Have: true, Attempt: 0})
		d1 := inj.Decide(faultplane.ScopeClient, method, faultplane.Key{Seq: 0, Have: true, Attempt: 1})
		return d0.Reject != trace.OK && d1.Reject == trace.OK
	})
	srv := NewServer(Options{})
	srv.Register(method, func(ctx context.Context, p []byte) ([]byte, error) { return p, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	var seals secure.Stats
	retry := RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}
	retried, err := Dial(l.Addr().String(), "bulk-test", Options{Faults: mkInjector(seed), Retry: &retry, EncryptionStats: &seals})
	if err != nil {
		t.Fatal(err)
	}
	defer retried.Close()
	got, err := retried.Call(ContextWithCallID(context.Background(), 0), method, payload)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("retried call: %v", err)
	}
	if n := seals.Seals.Load(); n != 2 {
		t.Fatalf("retried call sealed %d frames, want 2 (bulk envelope + chunk)", n)
	}
}

// TestOpenStreamBidi exercises the symmetric surface end to end: the
// client sends, the server echoes with a suffix, half-closes propagate,
// and the final OK status surfaces as io.EOF.
func TestOpenStreamBidi(t *testing.T) {
	ch := bidiSetup(t, Options{Workers: 4}, "svc/Chat", func(ctx context.Context, st *Stream) error {
		for {
			msg, err := st.Recv()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := st.Send(append(append([]byte(nil), msg...), '!')); err != nil {
				return err
			}
		}
	})
	st, err := ch.OpenStream(context.Background(), "svc/Chat")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want := patternPayload(100 * (i + 1))
		if err := st.Send(want); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		got, err := st.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(got) != len(want)+1 || !bytes.Equal(got[:len(want)], want) || got[len(want)] != '!' {
			t.Fatalf("echo %d mismatch", i)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("after clean finish: got %v, want io.EOF", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamBackpressure verifies credit flow control end to end: with the
// 256 KiB window and 16 KiB messages, a sender facing a sleeping reader
// must stall near 16 messages in, then resume as Recv grants credit back.
func TestStreamBackpressure(t *testing.T) {
	const total, msgSize, window = 64, streamWindow / 16, streamWindow
	var sent atomic.Int64
	ch := bidiSetup(t, Options{Workers: 4}, "svc/Firehose", func(ctx context.Context, st *Stream) error {
		msg := patternPayload(msgSize)
		for i := 0; i < total; i++ {
			if err := st.Send(msg); err != nil {
				return err
			}
			sent.Add(1)
		}
		return nil
	})
	st, err := ch.OpenStream(context.Background(), "svc/Firehose")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// No Recv yet: the sender must stop once the window is spent.
	deadline := time.Now().Add(2 * time.Second)
	for sent.Load() < window/msgSize && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // would-be overshoot window
	if n := sent.Load(); n < window/msgSize || n > window/msgSize+1 {
		t.Fatalf("stalled sender sent %d messages, want ~%d (window %d / msg %d)",
			n, window/msgSize, window, msgSize)
	}

	// Draining grants credit back; the sender finishes.
	for i := 0; i < total; i++ {
		if _, err := st.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("final: got %v, want io.EOF", err)
	}
	if n := sent.Load(); n != total {
		t.Fatalf("sender finished %d/%d", n, total)
	}
}

// TestStreamNoHeadOfLineBlocking runs a stalled stream and a live stream
// on one connection: the stalled stream's unconsumed window (four of its
// messages) must not delay the live stream's round trips.
func TestStreamNoHeadOfLineBlocking(t *testing.T) {
	var stalledSent atomic.Int64
	srv := NewServer(Options{Workers: 4})
	srv.RegisterBidi("svc/Stalled", func(ctx context.Context, st *Stream) error {
		msg := patternPayload(streamWindow / 4)
		for {
			if err := st.Send(msg); err != nil {
				return nil // reset by the client at test end
			}
			stalledSent.Add(1)
		}
	})
	srv.RegisterBidi("svc/PingPong", func(ctx context.Context, st *Stream) error {
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
	ch, err := Dial(l.Addr().String(), "hol-test", Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ch.Close()
		srv.Close()
	})

	stalled, err := ch.OpenStream(context.Background(), "svc/Stalled")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	// Let the stalled stream exhaust its credit.
	deadline := time.Now().Add(2 * time.Second)
	for stalledSent.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// The live stream must interleave freely on the shared connection.
	live, err := ch.OpenStream(context.Background(), "svc/PingPong")
	if err != nil {
		t.Fatal(err)
	}
	msg := patternPayload(512)
	for i := 0; i < 50; i++ {
		if err := live.Send(msg); err != nil {
			t.Fatalf("live send %d: %v", i, err)
		}
		if _, err := live.Recv(); err != nil {
			t.Fatalf("live recv %d: %v", i, err)
		}
	}
	if err := live.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Recv(); err != io.EOF {
		t.Fatalf("live finish: got %v, want io.EOF", err)
	}
	if n := stalledSent.Load(); n > 8 {
		t.Fatalf("stalled stream advanced to %d sends despite spent window", n)
	}
}

// TestStreamMessageExceedsWindow: a message larger than the stream window
// can never acquire enough credit; Send must fail fast with
// InvalidArgument rather than deadlock.
func TestStreamMessageExceedsWindow(t *testing.T) {
	ch := bidiSetup(t, Options{Workers: 4}, "svc/Sink", func(ctx context.Context, st *Stream) error {
		for {
			if _, err := st.Recv(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	})
	st, err := ch.OpenStream(context.Background(), "svc/Sink")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	err = st.Send(patternPayload(streamWindow + 1))
	if Code(err) != trace.InvalidArgument {
		t.Fatalf("oversized send: got %v, want InvalidArgument", err)
	}
	// The stream itself stays usable for conforming messages, up to a
	// whole window.
	for _, n := range []int{512, streamWindow} {
		if err := st.Send(patternPayload(n)); err != nil {
			t.Fatalf("conforming %d-byte send after oversized: %v", n, err)
		}
	}
}

// TestStreamCloseCancelsHandler: Close on a mid-flight stream must reach
// the server as a reset that promptly cancels the handler's context.
func TestStreamCloseCancelsHandler(t *testing.T) {
	cancelled := make(chan struct{})
	ch := bidiSetup(t, Options{Workers: 4}, "svc/Hang", func(ctx context.Context, st *Stream) error {
		if err := st.Send([]byte("started")); err != nil {
			return err
		}
		<-ctx.Done()
		close(cancelled)
		return ctx.Err()
	})
	st, err := ch.OpenStream(context.Background(), "svc/Hang")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the handler to be running before abandoning the stream.
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("handler context not cancelled within 5s of client Close")
	}
	if _, err := st.Recv(); Code(err) != trace.Cancelled {
		t.Fatalf("Recv after Close: got %v, want Cancelled", err)
	}
}

// TestStreamCloseReturnsPooledBuffers is the leak check on the §11/§12
// ownership contract: across many mid-flight stream closes — queued
// messages, partial assemblies, handed-out Recv buffers — the pool's
// outstanding-buffer count must stay bounded instead of growing with the
// stream count.
func TestStreamCloseReturnsPooledBuffers(t *testing.T) {
	const streams = 60
	ch := bidiSetup(t, Options{Workers: 4}, "svc/Spray", func(ctx context.Context, st *Stream) error {
		msg := patternPayload(2048)
		for {
			if err := st.Send(msg); err != nil {
				return nil
			}
		}
	})
	gets0, puts0 := wire.PoolCounters()
	base := gets0 - puts0
	for i := 0; i < streams; i++ {
		st, err := ch.OpenStream(context.Background(), "svc/Spray")
		if err != nil {
			t.Fatal(err)
		}
		// Consume a few messages (leaving one handed out in st.cur), then
		// abandon mid-flight with queued and in-assembly inbound data.
		for j := 0; j < 3; j++ {
			if _, err := st.Recv(); err != nil {
				t.Fatalf("stream %d recv %d: %v", i, j, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Outstanding buffers must settle back near the baseline: chunks in
	// flight when a reset lands are freed by the receiving loops, so poll
	// briefly. The bound is a small constant (loop scratch, one write
	// batch), independent of the stream count.
	const slack = 32
	deadline := time.Now().Add(5 * time.Second)
	var outstanding int64
	for {
		gets, puts := wire.PoolCounters()
		outstanding = (gets - puts) - base
		if outstanding <= slack || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if outstanding > slack {
		t.Fatalf("pool leak: %d buffers outstanding after %d mid-flight closes (slack %d)",
			outstanding, streams, slack)
	}
}

// TestChunkFrameTruncation feeds the chunk parser frames that violate the
// wire contract — no flags byte, a truncated seal, a flipped flags byte —
// and expects a clean decrypt error, never a panic or a bogus delivery.
func TestChunkFrameTruncation(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	psk := []byte("truncation-test-psk")
	// Only the receiving side goes through a transport; frames are forged
	// directly on the sending conn.
	rt, err := newTransport(c2, psk, "s2c", "c2s", nil)
	if err != nil {
		t.Fatal(err)
	}
	sendSess, err := secure.NewSession(secure.DeriveKey(psk, "c2s"), nil)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, payload []byte) {
		w := wire.NewWriter(c1)
		done := make(chan error, 1)
		go func() {
			buf, err := w.BeginFrame(wire.FrameStreamChunk, 9, len(payload))
			if err != nil {
				done <- err
				return
			}
			buf = append(buf, payload...)
			if err := w.EndFrame(buf); err != nil {
				done <- err
				return
			}
			done <- w.Flush()
		}()
		if _, err := rt.recv(); err == nil {
			t.Fatalf("%s: recv accepted a malformed chunk", name)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s: forge write: %v", name, err)
		}
	}

	// Empty payload: no room for even the flags byte.
	check("empty", nil)
	// Flags byte present but the seal truncated below nonce+tag.
	check("short-seal", []byte{chunkEndMsg, 1, 2, 3})
	// Valid seal, flipped clear-text flags: GCM must reject the AAD.
	sealed := sendSess.SealAppendAAD([]byte{chunkEndMsg}, []byte("payload"), []byte{chunkEndMsg})
	sealed[0] ^= chunkEndStream
	check("flipped-flags", sealed)
}

// TestStreamControlParserRobustness feeds the window-update and reset
// parsers truncated and garbage payloads; malformed grants are ignored
// and malformed resets still terminate with a usable status.
func TestStreamControlParserRobustness(t *testing.T) {
	for _, grant := range [][]byte{nil, {}, {0x80}, {0x80, 0x80, 0x80}, {0x00}, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}} {
		st := newStream(nil, &streamTable{}, 1)
		st.grantFromPeer(grant)
		if err := st.sendWin.take(streamWindow, context.Background()); err != nil {
			t.Fatalf("grant %x corrupted the window: %v", grant, err)
		}
	}
	for _, reset := range [][]byte{nil, {}, {0x80}, {0x05}, append([]byte{0x07}, "boom"...), bytes.Repeat([]byte{0xAA}, 64)} {
		st := newStream(nil, &streamTable{}, 1)
		st.resetFromPeer(reset)
		_, err := st.Recv()
		if err == nil || err == io.EOF {
			t.Fatalf("reset %x did not terminate the stream (err=%v)", reset, err)
		}
		if Code(err) == trace.OK {
			t.Fatalf("reset %x produced an OK status", reset)
		}
	}
}

// FuzzStreamControlParsers drives the reset and grant parsers plus the
// chunk-delivery state machine with arbitrary bytes: any input must leave
// the stream in a consistent state without panicking.
func FuzzStreamControlParsers(f *testing.F) {
	f.Add([]byte{0x05}, []byte{0x80}, byte(chunkEndMsg), []byte("data"))
	f.Add([]byte{}, []byte{}, byte(0xFF), []byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF}, []byte{0x00}, byte(chunkStatus|chunkEndMsg), bytes.Repeat([]byte{1}, 300))
	f.Fuzz(func(t *testing.T, reset, grant []byte, flags byte, chunk []byte) {
		st := newStream(nil, &streamTable{}, 1)
		st.grantFromPeer(grant)
		data := append(wire.GetBuf(len(chunk)), chunk...)
		st.deliverChunk(flags, data)
		data2 := append(wire.GetBuf(len(chunk)), chunk...)
		st.deliverChunk(flags|chunkEndMsg, data2)
		st.resetFromPeer(reset)
		if _, err := st.Recv(); err == nil {
			// A message delivered before the reset is fine; the terminal
			// state must still surface next.
			if _, err := st.Recv(); err == nil || err == io.EOF {
				t.Fatal("reset stream did not terminate")
			}
		}
		st.Close()
	})
}

// TestBulkUnaryAllocFloor pins the bulk path's allocation budget. The
// race detector inflates allocation counts, so the floor only runs on
// normal builds.
func TestBulkUnaryAllocFloor(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation floors are meaningless under instrumented builds")
	}
	ch := echoSetup(t, Options{Workers: 4})
	payload := patternPayload(16 << 10)
	call := func() {
		if _, err := ch.Call(context.Background(), "bulk/Echo", payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		call() // warm pools and connection state
	}
	// Whole-process allocations per echo, both endpoints included. The
	// inline path measured 18/op at the seed; the bulk lane adds the
	// assembly buffer handed to the caller and little else.
	const floor = 45
	if avg := testing.AllocsPerRun(100, call); avg > floor {
		t.Fatalf("bulk 16KiB echo allocates %.1f/op, budget %d", avg, floor)
	}
}

// TestStreamAllocFloor pins the per-stream allocation budget of the
// acceptance target: a 100-item stream must stay at or under 100
// allocations per full stream.
func TestStreamAllocFloor(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation floors are meaningless under instrumented builds")
	}
	const items = 100
	ch := bidiSetup(t, Options{Workers: 4}, "svc/Items", func(ctx context.Context, st *Stream) error {
		msg := patternPayload(1024)
		for i := 0; i < items; i++ {
			if err := st.Send(msg); err != nil {
				return err
			}
		}
		return nil
	})
	op := func() {
		st, err := ch.OpenStream(context.Background(), "svc/Items")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			_, err := st.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n != items {
			t.Fatalf("got %d items, want %d", n, items)
		}
		st.Close()
	}
	for i := 0; i < 20; i++ {
		op() // warm pools, maps, and goroutine stacks
	}
	const floor = 100
	if avg := testing.AllocsPerRun(30, op); avg > floor {
		t.Fatalf("100-item stream allocates %.1f/op, budget %d", avg, floor)
	}
}
