package stubby

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/faultplane"
	"rpcscale/internal/secure"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

// Handler serves one RPC method: it receives the request payload and
// returns the response payload or an error (ideally a *Status).
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// Server accepts connections and dispatches RPCs to registered handlers
// through a bounded receive queue and a fixed worker pool — the structure
// whose queue the paper's ServerRecvQueue component measures.
type Server struct {
	opts Options
	comp *compressor.Compressor

	mu           sync.RWMutex
	handlers     map[string]Handler
	bidiHandlers map[string]BidiHandler
	methodNames  map[string]string // interned registered names, keyed by themselves

	// intern is internMethod bound once at construction so the per-request
	// decode path does not allocate a method-value closure.
	intern func([]byte) string

	recvQ chan *serverCall

	// inflight counts calls a worker is currently executing; together with
	// the receive-queue depth it is the load estimate piggybacked on every
	// response (DESIGN.md §13) for client-side load-aware balancing.
	inflight atomic.Int64

	// netMu guards the listeners and the accepted connections, which
	// Close ends.
	netMu     sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}

	pool sync.WaitGroup // worker pool

	closeOnce sync.Once
	closed    chan struct{}
}

// serverCall is one queued request with the instrumentation timestamps
// accumulated so far. raw is a pooled recv buffer: ownership travels with
// the call, and the buffer is released only after the response envelope is
// sealed (the handler's payload — and possibly its response — alias it).
// A stream open carries the eagerly registered stream and its envelope,
// already decoded into req (acceptStream), and no raw buffer; a bulk-lane
// request carries its reassembled payload in bulkData (also pooled), and so
// does a compressed one once a worker has inflated it.
type serverCall struct {
	conn     *serverConn
	streamID uint64
	req      request // decoded on a worker; Payload aliases raw
	raw      []byte  // pooled decrypted envelope bytes
	stream   *Stream // non-nil: this is a stream open, not a unary call
	//rpclint:owns pooled request payload, bulk-lane or inflated; released
	// by release, or rides the response as reqBulk
	bulkData []byte
	readDone time.Time // when the request frame finished arriving
}

// serverConn is one accepted connection: the shared connection core —
// whose send queue is ServerSendQueue — plus what only a server keeps.
type serverConn struct {
	conn[*serverResponse]
	owed atomic.Int32 // unary calls queued or running: responses still to come (see handle)

	// ctx is the parent of every handler context on the connection;
	// readLoop cancels it (gone) once no response can reach the client.
	ctx  context.Context
	gone context.CancelFunc

	cancelMu sync.Mutex
	cancels  map[uint64]context.CancelFunc // in-flight calls by stream ID
}

func (c *serverConn) storeCancel(id uint64, cancel context.CancelFunc) {
	c.cancelMu.Lock()
	c.cancels[id] = cancel
	c.cancelMu.Unlock()
}

func (c *serverConn) deleteCancel(id uint64) {
	c.cancelMu.Lock()
	delete(c.cancels, id)
	c.cancelMu.Unlock()
}

func (c *serverConn) cancelStream(id uint64) {
	c.cancelMu.Lock()
	cancel := c.cancels[id]
	c.cancelMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// release returns the call's pooled buffers: it ends here, unanswered or
// answered without them.
func (call *serverCall) release() {
	wire.PutBuf(call.raw)
	wire.PutBuf(call.bulkData)
}

// serverResponse is a response waiting in the send queue, or with goAway
// set the closing server's last word on the connection.
type serverResponse struct {
	goAway   bool
	streamID uint64
	resp     response
	reqBuf   []byte // pooled request envelope, released after the response seals
	// reqBulk is the pooled request payload of a bulk-lane or compressed
	// request; like reqBuf it is released only after the response seals
	// (the handler's response may alias it — echo servers return their
	// input).
	reqBulk []byte
	// bulk routes the response payload through the bulk lane: bulkOut
	// leaves as chunk frames after a FrameBulkResponse envelope.
	bulk      bool
	bulkOut   []byte
	appDone   time.Time // handler completion: send-queue time starts here
	readDone  time.Time // request arrival, for Elapsed
	recvQueue time.Duration
	app       time.Duration
}

// NewServer returns a server with the given options.
func NewServer(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:         o,
		comp:         compressor.New(o.Compression, o.CompressorStats),
		handlers:     make(map[string]Handler),
		bidiHandlers: make(map[string]BidiHandler),
		methodNames:  make(map[string]string),
		recvQ:        make(chan *serverCall, queueLen),
		listeners:    make(map[net.Listener]struct{}),
		conns:        make(map[*serverConn]struct{}),
		closed:       make(chan struct{}),
	}
	s.intern = s.internMethod
	for i := 0; i < o.Workers; i++ {
		s.pool.Add(1)
		go s.worker()
	}
	return s
}

// Register installs a handler for a fully qualified method name. It panics
// on duplicate registration, which is a programming error.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("stubby: duplicate handler for %q", method))
	}
	if _, dup := s.bidiHandlers[method]; dup {
		panic(fmt.Sprintf("stubby: %q already registered as a stream", method))
	}
	s.handlers[method] = h
	s.methodNames[method] = method
}

// internMethod resolves a decoded method name against the registration
// table so steady-state request decode reuses the registered string
// instead of allocating one per call. Unknown methods (which fail lookup
// anyway) pay the allocation. Caller must hold s.mu.
func (s *Server) internMethod(b []byte) string {
	if m, ok := s.methodNames[string(b)]; ok {
		return m
	}
	return string(b)
}

// Serve accepts connections on l until the server or listener closes.
// It always returns a non-nil error; after Close it returns nil-wrapped
// ErrServerClosed semantics via net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.netMu.Lock()
	if s.closing() {
		s.netMu.Unlock()
		l.Close()
		return net.ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.netMu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		sc := &serverConn{cancels: make(map[uint64]context.CancelFunc)}
		if sc.init(nc, &s.opts, s.comp, "s2c", "c2s") != nil {
			continue
		}
		if !s.start(sc) {
			sc.shutdown()
			return net.ErrClosed
		}
	}
}

// start registers an accepted connection for Close to end and starts its
// loops, unless the server has closed. Under netMu, so that Close, once it
// has seen the connection, may wait for them.
func (s *Server) start(sc *serverConn) bool {
	s.netMu.Lock()
	defer s.netMu.Unlock()
	if s.closing() {
		return false
	}
	s.conns[sc] = struct{}{}
	sc.ctx, sc.gone = context.WithCancel(context.Background())
	sc.run(func(sr *serverResponse) { s.prepareResponse(sc, sr) }, func() { s.endTurn(sc) }, func() { s.readLoop(sc) })
	return true
}

// readLoop pulls frames off one connection and enqueues requests, until
// EOF, a closed socket, a connection-level failure or the client's GoAway
// — nothing to salvage either way. Live streams get their chunks delivered
// directly (deliverChunk never blocks — credit windows bound the queued
// bytes — so one stalled stream cannot head-of-line-block the connection).
// Then the connection is gone: its streams fail, its handlers in flight are
// cancelled, its socket closes.
func (s *Server) readLoop(sc *serverConn) {
	_ = sc.recvLoop(func(m recvMsg) bool { return s.dispatchServerFrame(sc, m) })
	sc.streams.failAll()
	sc.gone()
	sc.shutdown()
	s.netMu.Lock()
	delete(s.conns, sc)
	s.netMu.Unlock()
}

// dispatchServerFrame routes one decoded frame, taking ownership of
// m.plain; false means the read loop should exit (GoAway, or the
// connection has failed).
func (s *Server) dispatchServerFrame(sc *serverConn, m recvMsg) bool {
	switch m.typ {
	case wire.FrameRequest:
		if s.shed(sc, m.streamID, m.plain, false) {
			wire.PutBuf(m.plain)
			return true
		}
		s.enqueue(&serverCall{
			conn:     sc,
			streamID: m.streamID,
			raw:      m.plain, // pooled; ownership travels with the call
			readDone: time.Now(),
		})
	case wire.FrameBulkRequest:
		// Envelope of a bulk-lane request; the payload follows as
		// chunks. Queue admission happens when the payload completes.
		sc.beginBulk(m.streamID, &bulkAsm{env: m.plain, at: time.Now()})
	case wire.FrameStreamOpen:
		return s.acceptStream(sc, m.streamID, m.plain)
	case wire.FrameStreamChunk:
		b, err := sc.chunk(m)
		if err != nil {
			// A well-behaved client caps bulk payloads at MaxFrameSize;
			// this peer did not.
			s.reject(sc, m.streamID, trace.InvalidArgument, "bulk request exceeds maximum size")
			return true
		}
		if b == nil {
			return true
		}
		if s.shed(sc, m.streamID, b.env, false) {
			b.release()
			return true
		}
		s.enqueue(&serverCall{
			conn:     sc,
			streamID: m.streamID,
			raw:      b.env,
			bulkData: b.data,
			readDone: b.at,
		})
	case wire.FrameCancel:
		wire.PutBuf(m.plain)
		sc.dropBulk(m.streamID)
		sc.cancelStream(m.streamID)
	case wire.FrameGoAway:
		wire.PutBuf(m.plain)
		return false
	default:
		sc.control(m)
	}
	return true
}

// enqueue admits one decoded call to the receive queue, or refuses it — a
// unary call with a response, a stream with a reset: Unavailable once the
// server is closing (the connection stays up until Close has sent what it
// owes), NoResource when the queue is full, the overload behavior the
// paper's error taxonomy records.
func (s *Server) enqueue(call *serverCall) {
	if call.stream == nil {
		call.conn.owed.Add(1)
	}
	code, msg := trace.Unavailable, "server closing"
	if !s.closing() {
		select {
		case s.recvQ <- call:
			return
		default:
			code, msg = trace.NoResource, "server receive queue full"
		}
	}
	if call.stream != nil {
		call.stream.terminate(&Status{Code: code, Message: msg}, true)
	} else {
		call.conn.owed.Add(-1)
		s.reject(call.conn, call.streamID, code, msg)
	}
	call.release()
}

// closing reports whether Close has begun.
func (s *Server) closing() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// acceptStream decodes a stream-open envelope and registers the stream
// eagerly — chunks may arrive before a worker picks the open up, and the
// stream must exist to receive them. Its window in both directions is the
// protocol's streamWindow: nothing the peer declares sizes what it may
// make this end buffer. The envelope carries
// no payload, so the decode on the read loop is cheap. False means the
// connection has failed.
func (s *Server) acceptStream(sc *serverConn, streamID uint64, env []byte) bool {
	if s.shed(sc, streamID, env, true) {
		wire.PutBuf(env)
		return true
	}
	var req request
	s.mu.RLock()
	err := parseRequestInto(&req, env, s.intern)
	s.mu.RUnlock()
	wire.PutBuf(env)
	req.Payload = nil // an open carries none; drop any alias into env
	if err != nil {
		_ = sc.tr.sendReset(streamID, &Status{Code: trace.Internal, Message: "stream open: " + err.Error()})
		return true
	}
	st := newStream(sc.tr, &sc.streams, streamID)
	if !sc.streams.add(streamID, st) {
		return false
	}
	s.enqueue(&serverCall{
		conn:     sc,
		streamID: streamID,
		req:      req,
		stream:   st,
		readDone: time.Now(),
	})
	return true
}

// shed refuses one arrival when the receive queue is at the shedding
// threshold, and reports whether it did: past that depth new arrivals
// would only queue toward deadlines they will miss, so they fail at once
// with Unavailable (a stream open with a reset) — the fail-fast overload
// posture the paper's §7 retry analysis assumes servers adopt. env, still
// the caller's, is parsed only on this rare, already-failing path so the
// shed can be attributed to a method; the request is not decompressed.
func (s *Server) shed(sc *serverConn, streamID uint64, env []byte, stream bool) bool {
	if t := s.opts.ShedThreshold; t <= 0 || len(s.recvQ) < t {
		return false
	}
	// Reported before the refusal is sent, so an observer has seen the
	// shed by the time its caller sees Unavailable.
	if s.opts.Observer != nil {
		method := ""
		if req, err := parseRequest(env); err == nil {
			method = req.Method
		}
		s.opts.Observer.CallShed(method)
	}
	st := &Status{Code: trace.Unavailable, Message: "server overloaded: load shed"}
	if stream {
		_ = sc.tr.sendReset(streamID, st)
	} else {
		s.reject(sc, streamID, st.Code, st.Message)
	}
	return true
}

// reject sends an error response without involving the worker pool.
func (s *Server) reject(sc *serverConn, streamID uint64, code trace.ErrorCode, msg string) {
	resp := response{Code: code, Message: msg}
	buf := appendResponse(wire.GetBuf(len(msg)+envelopeOverhead), &resp)
	_ = sc.tr.send(wire.FrameResponse, streamID, buf)
	wire.PutBuf(buf)
}

// worker drains the receive queue: decode, deadline setup, handler
// invocation, and response enqueue.
func (s *Server) worker() {
	defer s.pool.Done()
	for {
		select {
		case call := <-s.recvQ:
			s.handle(call)
		case <-s.closed:
			// Drain remaining work before exiting so accepted requests
			// are answered.
			for {
				select {
				case call := <-s.recvQ:
					s.handle(call)
				default:
					return
				}
			}
		}
	}
}

// load returns the server's instantaneous load estimate: queued requests
// plus handlers currently executing. It is cheap enough to read on every
// response and is what the response envelope's load field reports.
func (s *Server) load() int {
	return len(s.recvQ) + int(s.inflight.Load())
}

// handle serves one queued call and sends its response. On an idle
// connection a small response leaves right here, on the worker — the turn
// is free and nothing is queued, so the hand-off to writeLoop would only
// add a wake-up; otherwise it queues behind what is already waiting. With
// other calls of the connection queued or running (owed) it queues too:
// their responses are about to follow, and writeLoop puts them in one write.
func (s *Server) handle(call *serverCall) {
	s.inflight.Add(1)
	sr := s.serve(call)
	s.inflight.Add(-1)
	sc := call.conn
	last := call.stream != nil || sc.owed.Add(-1) == 0
	if sr == nil {
		return
	}
	if last && len(sr.resp.Payload) <= directSendMax && len(sc.sendQ) == 0 && sc.turn.tryLock() {
		s.prepareResponse(sc, sr)
		s.endTurn(sc)
		return
	}
	select {
	case sc.sendQ <- sr:
		select {
		case <-sc.closed:
			sc.drainQueue() // the drain loop may have gone before sr was queued
		default:
		}
	case <-sc.closed:
		sr.release()
	}
}

// serve runs one call up to its response, nil when it already answered
// (reject, stream) or must not answer (injected drop).
func (s *Server) serve(call *serverCall) *serverResponse {
	if call.stream != nil {
		// Stream open: fault injection covers unary calls only; streams
		// pass through (they are outside the paper's sampled RPC classes).
		s.handleBidi(call)
		return nil
	}
	req := &call.req
	s.mu.RLock()
	err := parseRequestInto(req, call.raw, s.intern)
	var h Handler
	if err == nil {
		h = s.handlers[req.Method]
	}
	s.mu.RUnlock()
	if err != nil {
		s.reject(call.conn, call.streamID, trace.Internal, err.Error())
		call.release()
		return nil
	}
	payload := req.Payload
	if call.bulkData != nil {
		// Bulk-lane request: the payload arrived as chunks, never
		// compressed, reassembled into its own pooled buffer.
		payload = call.bulkData
	} else if req.Compressed {
		// Inflate into a pooled buffer sized from the declared length —
		// refused past what any frame may carry, the bulk lane's rule
		// (conn.chunk) — which then travels in the bulk lane's slot: the
		// handler's input is released wherever a bulk request's would be.
		var n int
		if n, err = compressor.DecodedLen(payload, wire.MaxFrameSize); err == nil {
			call.bulkData, err = s.comp.DecompressAppend(wire.GetBuf(n), payload, wire.MaxFrameSize)
		}
		if err != nil {
			s.reject(call.conn, call.streamID, trace.InvalidArgument, "decompress: "+err.Error())
			call.release()
			return nil
		}
		payload = call.bulkData
	}
	// The paper counts decrypt+parse inside ServerRecvQueue (§3.1); decode
	// happened between readDone and now, so the measurement matches.
	recvQueue := time.Since(call.readDone)
	req.Payload = payload

	// Server-scope fault decision, keyed by the envelope's call ID and
	// attempt number so schedules replay deterministically (see
	// internal/faultplane).
	var dec faultplane.Decision
	if s.opts.Faults != nil {
		dec = s.opts.Faults.Decide(faultplane.ScopeServer, req.Method, faultplane.Key{
			Seq:     req.CallSeq - 1,
			Have:    req.CallSeq > 0,
			Attempt: req.Attempt,
		})
		if dec.Reject != trace.OK {
			s.reject(call.conn, call.streamID, dec.Reject, "fault injection: rejected")
			call.release()
			return nil
		}
		if dec.Drop {
			// The response vanishes; the client's deadline expires.
			call.release()
			return nil
		}
		if dec.Corrupt {
			faultplane.CorruptPayload(payload)
		}
	}

	ctx, cancel := requestContext(call.conn.ctx, req)
	call.conn.storeCancel(call.streamID, cancel)
	defer func() {
		call.conn.deleteCancel(call.streamID)
		cancel()
	}()

	if dec.Delay > 0 {
		// Injected delay occupies this worker — the mechanism by which
		// overload incidents genuinely saturate the serving pool rather
		// than simulating it. Bounded by the request deadline.
		t := time.NewTimer(dec.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}

	var out []byte
	var herr error
	appStart := time.Now()
	if ctxErr := ctx.Err(); ctxErr != nil {
		// Deadline burned (typically by an injected delay) before the
		// handler ran.
		herr = ctxErrToStatus(ctxErr)
	} else if h == nil {
		herr = Errorf(trace.EntityNotFound, "no handler for method %q", req.Method)
	} else {
		out, herr = h(ctx, payload)
		if ctxErr := ctx.Err(); herr == nil && ctxErr != nil {
			herr = ctxErrToStatus(ctxErr)
		} else if herr != nil && (errors.Is(herr, context.DeadlineExceeded) || errors.Is(herr, context.Canceled)) {
			// A handler returning its ctx.Err() means the propagated
			// deadline or a cancel fired: surface the canonical code, not
			// Internal — the client may see this response before its own
			// local timer when both ends expire at the same instant.
			herr = ctxErrToStatus(herr)
		}
	}
	appDone := time.Now()

	st := StatusFromError(herr)
	sr := &serverResponse{
		streamID: call.streamID,
		// The handler's response may alias the request envelope (echo
		// servers return their input), so the pooled request buffers ride
		// along and are released only after the response is sealed.
		reqBuf:    call.raw,
		reqBulk:   call.bulkData,
		appDone:   appDone,
		readDone:  call.readDone,
		recvQueue: recvQueue,
		app:       appDone.Sub(appStart),
	}
	sr.resp.Code = st.Code
	sr.resp.Payload = out
	if st.Code != trace.OK {
		sr.resp.Message = st.Message
		sr.resp.Payload = nil
	}
	return sr
}

func ctxErrToStatus(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return errDeadlineExceeded
	}
	return errCancelled
}

// prepareResponse compresses and marshals one queued response into a
// pooled envelope, appending it to the turn's batch — the server side of
// RespProcStack. Payloads at or past the bulk threshold switch to the bulk
// lane: the envelope carries only the size, and the payload leaves as chunk
// frames sealed straight from the handler's buffer — no copy into the
// envelope, no compression. Caller holds the turn.
func (s *Server) prepareResponse(sc *serverConn, sr *serverResponse) {
	if sr.goAway {
		sc.turn.add(sr, nil, 0)
		return
	}
	procStart := time.Now()
	resp := &sr.resp
	if len(resp.Payload) >= bulkThreshold && len(resp.Payload) <= wire.MaxFrameSize {
		sr.bulk = true
		sr.bulkOut = resp.Payload
		resp.BulkSize = uint64(len(resp.Payload))
		resp.Payload = nil
	} else {
		resp.Payload, resp.Compressed = sc.compress(resp.Payload)
	}
	resp.Timings = serverTimings{
		RecvQueue: sr.recvQueue,
		App:       sr.app,
		SendQueue: procStart.Sub(sr.appDone),
	}
	// Piggyback the current load estimate so clients balance on
	// near-real-time signals without a separate control RPC.
	resp.Load = uint64(s.load())
	// The timing fields go last, after everything else is marshalled, so
	// RespProc covers serialization: a lower bound measured up to the write.
	env := appendResponseBody(wire.GetBuf(len(resp.Payload)+len(resp.Message)+envelopeOverhead), resp)
	resp.Timings.RespProc = time.Since(procStart)
	resp.Timings.Elapsed = time.Since(sr.readDone)
	env = appendTimings(env, &resp.Timings)
	if len(env)+secure.Overhead > wire.MaxFrameSize {
		// Too large for one frame, and past what the bulk lane carries:
		// the call ends coded now, not at the client's deadline.
		*resp = response{Code: trace.NoResource, Message: "response exceeds maximum frame size",
			Timings: resp.Timings, Load: resp.Load}
		env = appendResponse(env[:0], resp)
	}
	sc.turn.add(sr, env, len(env)+len(sr.bulkOut))
}

// endTurn sends the turn's batch (sendTurn.flush), releases the pooled
// request and response buffers, and releases the turn; a batch that ended
// in the closing server's GoAway then shuts the connection. A failed write
// is not reported here — the connection's read loop observes the socket
// error and tears down. Caller holds the turn.
func (s *Server) endTurn(sc *serverConn) {
	t := &sc.turn
	_ = t.flush(sc.tr, time.Time{})
	goAway := false
	for i, sr := range t.batch {
		wire.PutBuf(t.envs[i])
		sr.release()
		goAway = goAway || sr.goAway
	}
	t.unlock()
	if goAway {
		sc.shutdown()
	}
}

// frame implements outbound.
func (sr *serverResponse) frame() (typ byte, streamID uint64, bulk []byte) {
	switch {
	case sr.goAway:
		return wire.FrameGoAway, 0, nil
	case sr.bulk:
		return wire.FrameBulkResponse, sr.streamID, sr.bulkOut
	}
	return wire.FrameResponse, sr.streamID, nil
}

// release implements outbound: the pooled request buffers ride with the
// response until it is sealed, or until it is known it never will be.
func (sr *serverResponse) release() {
	wire.PutBuf(sr.reqBuf)
	wire.PutBuf(sr.reqBulk)
}

// Close stops accepting and closes every listener; lets the handlers in
// flight, and the calls queued for them, run to completion and their
// responses go out, refusing new requests Unavailable meanwhile — for at
// most closeGrace, after which it cancels every handler's context and
// waits for the handlers to return; then sends every connection a GoAway,
// closes it and joins its loops.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.netMu.Lock()
		for l := range s.listeners {
			l.Close()
		}
		conns := slices.Collect(maps.Keys(s.conns))
		s.netMu.Unlock()
		// A handler waiting on its context would hold the drain until its
		// deadline: past closeGrace, cancel them all. Their responses still
		// go out, coded Cancelled.
		cancelHandlers := time.AfterFunc(closeGrace, func() {
			for _, sc := range conns {
				sc.gone()
			}
		})
		s.pool.Wait()
		cancelHandlers.Stop()
		for _, sc := range conns {
			// The GoAway queues behind the responses owed; the drain loop
			// shuts the connection once it has written it (endTurn). The
			// deadline bounds how long a peer that stopped reading can
			// hold that up.
			_ = sc.tr.conn.SetWriteDeadline(time.Now().Add(closeGrace))
			select {
			case sc.sendQ <- &serverResponse{goAway: true}:
			case <-sc.closed:
			}
		}
		for _, sc := range conns {
			sc.loops.Wait()
		}
		// No reader is left: serve what raced the workers' exit into recvQ
		// — each call finds its connection gone and its context cancelled.
		s.pool.Add(1)
		s.worker()
	})
}

// closeGrace bounds how long Close lets handlers in flight run before it
// cancels them, and how long it waits for a connection's peer to take the
// responses owed on it and the GoAway.
const closeGrace = 5 * time.Second
