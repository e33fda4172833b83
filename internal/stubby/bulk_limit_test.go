package stubby

// The one size rule of the bulk lane's inbound half (conn.chunk), stated
// for both ends against a peer that lies: neither the size an envelope
// declares nor the bytes its chunks add up to may cost the receiver more
// than wire.MaxFrameSize of memory, an oversize transfer ends that one call
// coded, and the connection carries on. A declared size reserves at most
// maxBulkHint before bytes back it.

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"rpcscale/internal/leakcheck"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

// rawPeer is the other end of a connection, speaking frames through a
// transport of its own: whatever a hostile peer could put on the wire.
type rawPeer struct {
	t  *testing.T
	tr *transport
}

func newRawPeer(t *testing.T, nc net.Conn, dirSend, dirRecv string) *rawPeer {
	tr, err := newTransport(nc, defaultSecret, dirSend, dirRecv, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &rawPeer{t: t, tr: tr}
}

// chunk sends one chunk frame with exactly these flags.
func (p *rawPeer) chunk(id uint64, flags byte, data []byte) error {
	p.tr.lockSend()
	return p.tr.flushUnlock(p.tr.appendChunkLocked(id, flags, data))
}

// transfer sends a bulk transfer the way the table describes it: the
// envelope, then every chunk, only the last one marked final.
func (p *rawPeer) transfer(typ byte, id uint64, env []byte, chunks [][]byte) error {
	if err := p.tr.send(typ, id, env); err != nil {
		return err
	}
	for i, c := range chunks {
		var flags byte
		if i == len(chunks)-1 {
			flags = chunkEndMsg
		}
		if err := p.chunk(id, flags, c); err != nil {
			return err
		}
	}
	return nil
}

// serve plays a server: every request goes to respond, which answers it on
// the peer's transport. It returns when the connection ends.
func (p *rawPeer) serve(respond func(id uint64, req *request) error) {
	for {
		m, err := p.tr.recv()
		if err != nil {
			return
		}
		if m.typ != wire.FrameRequest {
			wire.PutBuf(m.plain)
			continue
		}
		req, err := parseRequest(m.plain)
		if err != nil {
			p.t.Errorf("peer: request: %v", err)
			return
		}
		err = respond(m.streamID, req)
		wire.PutBuf(m.plain)
		if err != nil {
			return
		}
	}
}

// respond sends one response envelope.
func (p *rawPeer) respond(id uint64, resp *response) error {
	return p.tr.send(wire.FrameResponse, id, appendResponse(nil, resp))
}

// Request tags a peer of an older layout may still send: the caller's
// parent span, a hedge flag, a stream open's credit window and a bulk
// request's declared size. All four are skipped.
const (
	retiredReqParentSpan = 4
	retiredReqHedged     = 8
	retiredReqWindow     = 11
	retiredReqBulkSize   = 12
)

// serveResponses plays a server: "bulk/Get" is answered with the transfer
// under test, anything else is echoed.
func (p *rawPeer) serveResponses(declared uint64, chunks [][]byte) {
	p.serve(func(id uint64, req *request) error {
		if req.Method != "bulk/Get" {
			return p.respond(id, &response{Payload: req.Payload})
		}
		env := appendResponse(nil, &response{BulkSize: declared})
		return p.transfer(wire.FrameBulkResponse, id, env, chunks)
	})
}

// awaitResponse reads until the response to stream id arrives; of one that
// takes the bulk lane it returns the envelope and lets the chunks pass.
func (p *rawPeer) awaitResponse(id uint64) response {
	for {
		m, err := p.tr.recv()
		if err != nil {
			p.t.Fatalf("peer: waiting for response %d: %v", id, err)
		}
		if (m.typ == wire.FrameResponse || m.typ == wire.FrameBulkResponse) && m.streamID == id {
			var resp response
			if err := parseResponseInto(&resp, m.plain); err != nil {
				p.t.Fatal(err)
			}
			resp.Payload = append([]byte(nil), resp.Payload...)
			wire.PutBuf(m.plain)
			return resp
		}
		wire.PutBuf(m.plain)
	}
}

func TestBulkSizeRuleBothEnds(t *testing.T) {
	big := make([]byte, 4<<20)
	var past [][]byte // adds up to 4 MiB more than a frame may carry
	for len(past)*len(big) <= wire.MaxFrameSize {
		past = append(past, big)
	}
	cases := []struct {
		name     string
		declared uint64
		chunks   [][]byte
		over     bool
		maxAlloc uint64 // bound on the client's allocation for the call; 0 = none
	}{
		// Once the client sized its buffer from this number and the process
		// died of it: fatal error: runtime: out of memory. Capped at
		// wire.MaxFrameSize, it still cost 64 MiB for 16 B.
		{"declares 32 TiB, sends 16 B", 1 << 45, [][]byte{[]byte("12345678"), []byte("abcdefgh")}, false, 2 << 20},
		// One more chunk after the one that overflows: it must be dropped.
		{"declares 1 KiB, sends 68 MiB", 1 << 10, append(past, []byte("tail")), true, 0},
	}
	for _, tc := range cases {
		want := bytes.Join(tc.chunks, nil)
		t.Run("response: "+tc.name, func(t *testing.T) {
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
				newRawPeer(t, nc, "s2c", "c2s").serveResponses(tc.declared, tc.chunks)
			}()
			ch, err := Dial(l.Addr().String(), "liar", Options{})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := ch.Call(ctx, "bulk/Get", []byte("x"))
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; tc.maxAlloc != 0 && alloc >= tc.maxAlloc {
				t.Errorf("the call allocated %d B for a %d B reply, want < %d", alloc, len(want), tc.maxAlloc)
			}
			if tc.over {
				if Code(err) != trace.Internal || !strings.Contains(err.Error(), "bulk response exceeds maximum size") {
					t.Fatalf("oversize response: got %d bytes, err %v", len(out), err)
				}
			} else if err != nil || !bytes.Equal(out, want) {
				t.Fatalf("got %d bytes, err %v; want the %d sent", len(out), err, len(want))
			}
			FreeResponse(out)
			// The connection, and every other call on it, is unaffected.
			if out, err := ch.Call(ctx, "svc/Echo", []byte("still here")); err != nil || string(out) != "still here" {
				t.Fatalf("call after the transfer: %q, %v", out, err)
			}
			ch.Close()
			<-served
			if n := outstanding(); n != 0 {
				t.Errorf("%d pooled buffers outstanding", n)
			}
		})
		t.Run("request: "+tc.name, func(t *testing.T) {
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
			// The server sizes a request by its chunks alone; a size declared
			// under the retired tag is skipped.
			env := appendRequest(nil, &request{Method: "svc/Echo", Deadline: time.Minute})
			env = appendUintField(env, retiredReqBulkSize, tc.declared)
			if err := peer.transfer(wire.FrameBulkRequest, 1, env, tc.chunks); err != nil {
				t.Fatal(err)
			}
			resp := peer.awaitResponse(1)
			if tc.over {
				if resp.Code != trace.InvalidArgument || !strings.Contains(resp.Message, "bulk request exceeds maximum size") {
					t.Fatalf("oversize request: code %v, %q", resp.Code, resp.Message)
				}
			} else if resp.Code != trace.OK || !bytes.Equal(resp.Payload, want) {
				t.Fatalf("code %v %q, %d bytes echoed; want the %d sent", resp.Code, resp.Message, len(resp.Payload), len(want))
			}
			// The connection is unaffected.
			env = appendRequest(nil, &request{Method: "svc/Echo", Payload: []byte("still here"), Deadline: time.Minute})
			if err := peer.tr.send(wire.FrameRequest, 3, env); err != nil {
				t.Fatal(err)
			}
			if resp := peer.awaitResponse(3); resp.Code != trace.OK || string(resp.Payload) != "still here" {
				t.Fatalf("call after the transfer: code %v, %q", resp.Code, resp.Payload)
			}
			nc.Close()
			srv.Close()
			if n := outstanding(); n != 0 {
				t.Errorf("%d pooled buffers outstanding", n)
			}
		})
	}
}

// awaitStreamEnd reads until a reset for stream id arrives and returns its
// code, failing if the response to stream stop comes first: the frames of
// one connection are handled in order, so a reply to a call sent after the
// chunks proves they were taken without a reset.
func (p *rawPeer) awaitStreamEnd(id, stop uint64) trace.ErrorCode {
	for {
		m, err := p.tr.recv()
		if err != nil {
			p.t.Fatalf("peer: waiting for the reset of stream %d: %v", id, err)
		}
		switch {
		case m.typ == wire.FrameReset && m.streamID == id:
			code, _ := wire.Uvarint(m.plain)
			wire.PutBuf(m.plain)
			return trace.ErrorCode(code)
		case m.typ == wire.FrameResponse && m.streamID == stop:
			wire.PutBuf(m.plain)
			return trace.OK
		}
		wire.PutBuf(m.plain)
	}
}

// A stream's receiver holds no more than the window it granted, which is
// the protocol's and not the peer's to choose. A peer that fills the window
// exactly keeps its stream; one more byte without credit ends that stream
// with an InvalidArgument reset and returns its buffers, and the connection
// carries on — also when the open declares a larger window under the
// retired tag.
func TestStreamReceiverHoldsItsWindow(t *testing.T) {
	cases := []struct {
		name     string
		declared uint64 // window the open declares; 0 = none
	}{
		{"declares none", 0},
		// A server that adopted this window queued the 4 MiB flood below
		// and answered the echo first; a client that declared it could
		// park 32 MiB on a stream whose handler never reads.
		{"declares 64 MiB", 64 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { holdsWindow(t, tc.declared) })
	}
}

func holdsWindow(t *testing.T, declared uint64) {
	leakcheck.Check(t)
	outstanding := poolBalance()
	srv := NewServer(Options{})
	srv.Register("svc/Echo", echoHandler)
	srv.RegisterBidi("svc/Sink", func(ctx context.Context, st *Stream) error {
		<-ctx.Done() // never calls Recv: nothing is granted back
		return ctx.Err()
	})
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
	echo := func(id uint64) {
		env := appendRequest(nil, &request{Method: "svc/Echo", Payload: []byte("ping"), Deadline: time.Minute})
		if err := peer.tr.send(wire.FrameRequest, id, env); err != nil {
			t.Fatal(err)
		}
	}
	if err := nc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}

	const window = 256 << 10
	open := appendRequest(nil, &request{Method: "svc/Sink", Deadline: time.Minute})
	if declared != 0 {
		open = appendUintField(open, retiredReqWindow, declared)
	}
	if err := peer.tr.send(wire.FrameStreamOpen, 1, open); err != nil {
		t.Fatal(err)
	}
	for sent := 0; sent < window; sent += bulkChunkSize {
		if err := peer.chunk(1, chunkEndMsg, make([]byte, bulkChunkSize)); err != nil {
			t.Fatal(err)
		}
	}
	echo(3)
	if code := peer.awaitStreamEnd(1, 3); code != trace.OK {
		t.Fatalf("a stream that kept to its window was reset: %v", code)
	}

	// Past the window. Without the bound the server queued all of it: a
	// 96 MiB flood grew its heap by 98 MiB.
	big := make([]byte, 1<<20)
	for i := 0; i < 4; i++ {
		if err := peer.chunk(1, chunkEndMsg, big); err != nil {
			t.Fatal(err)
		}
	}
	echo(5)
	if code := peer.awaitStreamEnd(1, 5); code != trace.InvalidArgument {
		t.Fatalf("stream sent past its window ended %v, want an InvalidArgument reset", code)
	}
	if resp := peer.awaitResponse(5); resp.Code != trace.OK || string(resp.Payload) != "ping" {
		t.Fatalf("call after the reset: code %v, %q", resp.Code, resp.Payload)
	}
	nc.Close()
	srv.Close()
	if n := outstanding(); n != 0 {
		t.Errorf("%d pooled buffers outstanding", n)
	}
}

// The final status chunk is exempt from credit, so it gets a bound of its
// own: a status envelope past maxStatusEnvelope ends the stream
// InvalidArgument on the client, and its buffers come back.
func TestStreamStatusChunkBounded(t *testing.T) {
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
		for {
			m, err := peer.tr.recv()
			if err != nil {
				return
			}
			wire.PutBuf(m.plain)
			if m.typ == wire.FrameStreamOpen {
				env := appendResponse(nil, &response{Code: trace.Internal, Message: strings.Repeat("x", maxStatusEnvelope)})
				if peer.chunk(m.streamID, chunkStatus|chunkEndMsg|chunkEndStream, env) != nil {
					return
				}
			}
		}
	}()
	ch, err := Dial(l.Addr().String(), "liar", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := ch.OpenStream(ctx, "svc/Status")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); Code(err) != trace.InvalidArgument {
		t.Fatalf("oversize status: Recv ended %v, want InvalidArgument", Code(err))
	}
	st.Close()
	ch.Close()
	<-served
	if n := outstanding(); n != 0 {
		t.Errorf("%d pooled buffers outstanding", n)
	}
}

// TestRetiredRequestTagsSkipped sends a request carrying the retired
// parent-span and hedge tags as the layout that assigned them encoded
// them: the server skips both and answers as if they were absent.
func TestRetiredRequestTagsSkipped(t *testing.T) {
	leakcheck.Check(t)
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
	payload := []byte("retired tags")
	env := appendRequest(nil, &request{Method: "svc/Echo", TraceID: 5, SpanID: 6, Payload: payload, Deadline: time.Minute})
	env = appendBoolField(appendUintField(env, retiredReqParentSpan, 0xfeed), retiredReqHedged, true)
	if err := peer.tr.send(wire.FrameRequest, 1, env); err != nil {
		t.Fatal(err)
	}
	if resp := peer.awaitResponse(1); resp.Code != trace.OK || !bytes.Equal(resp.Payload, payload) {
		t.Fatalf("code %v %q, payload %q; want %q echoed", resp.Code, resp.Message, resp.Payload, payload)
	}
}

// ownBytesRetry retries as DefaultRetryPolicy does, faster: a call that
// fails on its own bytes must not spend a second attempt.
var ownBytesRetry = RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}

// checkOwnBytesFailure calls method on a live, healthy channel and wants
// code with no retry attempt, then a plain echo: the failure was the
// call's, not the connection's.
func checkOwnBytesFailure(t *testing.T, ch *Channel, obs *countingObserver, method string, payload []byte, want trace.ErrorCode) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := ch.Call(ctx, method, payload); Code(err) != want {
		t.Fatalf("got %v, want %v", err, want)
	}
	if n := obs.retries.Load(); n != 0 {
		t.Errorf("%d retry attempts, want 0", n)
	}
	if out, err := ch.Call(ctx, "svc/Echo", []byte("still here")); err != nil || string(out) != "still here" {
		t.Fatalf("call after the failure: %q, %v", out, err)
	}
}

// TestOversizeRequestEndsInvalidArgument sends a request past
// wire.MaxFrameSize: it ends InvalidArgument, as the server ends a peer's
// oversize bulk request, and is not retried.
func TestOversizeRequestEndsInvalidArgument(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer(Options{})
	srv.Register("svc/Echo", echoHandler)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	obs := &countingObserver{}
	ch, err := Dial(l.Addr().String(), "test", Options{Retry: &ownBytesRetry, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	checkOwnBytesFailure(t, ch, obs, "svc/Echo", make([]byte, wire.MaxFrameSize+1), trace.InvalidArgument)
}

// TestMalformedResponseEndsInternal answers a call with an envelope that
// does not parse: the call ends Internal, as an oversize response does,
// and is not retried.
func TestMalformedResponseEndsInternal(t *testing.T) {
	leakcheck.Check(t)
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
		peer.serve(func(id uint64, req *request) error {
			if req.Method == "bad/Envelope" {
				return peer.tr.send(wire.FrameResponse, id, []byte{0xff})
			}
			return peer.respond(id, &response{Payload: req.Payload})
		})
	}()
	obs := &countingObserver{}
	ch, err := Dial(l.Addr().String(), "liar", Options{Retry: &ownBytesRetry, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ch.Close()
		<-served
	}()
	checkOwnBytesFailure(t, ch, obs, "bad/Envelope", []byte("q"), trace.Internal)
}
