package stubby

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/faultplane"
	"rpcscale/internal/secure"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

// Channel is a client's connection to one server (DESIGN.md §16; a Pool
// holds several). It is the shared connection core — send queue
// (ClientSendQueue), receive loop (ClientRecvQueue), stream table — plus
// the calls awaiting a response, the retry and breaker policy, and the
// per-call instrumentation that assembles the nine-component
// breakdown. The field order is measured, not tidy: with other fields
// ahead of conn, fleet_mix lost 4 % of its ops_per_s (DESIGN.md §16).
type Channel struct {
	conn[*clientCall]
	nextStream atomic.Uint64

	// serverLoad caches the most recent load report the server piggybacked
	// on a response envelope (see DESIGN.md §13); balancing policies read
	// it through Pool.Load without any extra wire traffic.
	serverLoad atomic.Int64

	mu      sync.Mutex
	pending map[uint64]*clientCall

	opts          Options
	serverCluster string
	// epoch anchors the channel's monotonic per-call timestamps: every
	// instrumentation point records time.Since(epoch) nanoseconds in an
	// atomic int64 instead of boxing a *time.Time per event.
	epoch time.Time

	breaker *Breaker // nil unless Options.Breaker is set

	err atomic.Pointer[channelError] // error that killed the channel
}

// clientCall tracks one in-flight RPC. Timestamps are nanoseconds since
// the channel epoch; 0 means "not reached".
type clientCall struct {
	req      request
	streamID uint64
	dropped  bool // fault plane: swallow the request instead of sending
	// cancel marks a queue entry that carries no request, only the order
	// to stop working on streamID (see cancelRemote).
	cancel bool
	// bulk routes this call through the zero-copy bulk lane: the payload
	// leaves as chunk frames after a FrameBulkRequest envelope instead of
	// riding inside it. bulkPayload is set by prepareCall.
	bulk        bool
	bulkPayload []byte
	enqueuedNs  int64 // entered the send queue
	// deqNs and sentNs are written by the sender goroutine while the
	// calling goroutine may be timing out concurrently, so they are
	// published atomically.
	deqNs    atomic.Int64 // sender dequeued (end of ClientSendQueue)
	sentNs   atomic.Int64 // frame written (end of ReqProcStack)
	resultCh chan *callResult
}

// channelError boxes the error that killed a channel so it can live in an
// atomic.Pointer regardless of its dynamic type.
type channelError struct{ err error }

// callResult is what the reader delivers to a waiting call. resp.Payload
// aliases buf, a pooled recv buffer the waiting call returns with
// wire.PutBuf after copying the payload out. For bulk-lane responses
// (bulk set), buf is a dedicated assembly buffer handed to the caller
// outright — no copy-out, no PutBuf (DESIGN.md §12).
type callResult struct {
	resp   response
	buf    []byte
	bulk   bool
	rxAtNs int64 // response frame fully read + decoded
	netErr error
}

// sinceEpoch returns the channel-relative monotonic timestamp, always > 0
// so 0 can mean "not recorded".
func (c *Channel) sinceEpoch() int64 { return int64(time.Since(c.epoch)) + 1 }

// Dial connects to addr over TCP and returns a channel. serverCluster
// labels spans with the callee's placement (a real stack learns it from
// the handshake).
func Dial(addr, serverCluster string, opts Options) (*Channel, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		// Status-code the failure: a refused/unroutable backend is the
		// same Unavailable the paper's taxonomy records for dead peers.
		return nil, Errorf(trace.Unavailable, "dial %s: %v", addr, err)
	}
	return NewChannel(nc, serverCluster, opts)
}

// NewChannel builds a channel over an existing connection (e.g. net.Pipe
// in tests), which it owns from here on, and starts its loops.
func NewChannel(nc net.Conn, serverCluster string, opts Options) (*Channel, error) {
	o := opts.withDefaults()
	c := &Channel{
		pending:       make(map[uint64]*clientCall),
		opts:          o,
		serverCluster: serverCluster,
		epoch:         time.Now(),
	}
	if err := c.init(nc, &c.opts, compressor.New(o.Compression, o.CompressorStats), "c2s", "s2c"); err != nil {
		return nil, err
	}
	if o.Retry != nil {
		policy := *o.Retry // the channel keeps the policy it was built with
		c.opts.Retry = &policy
	}
	if o.Breaker != nil {
		c.breaker = newBreaker(*o.Breaker, o.Observer)
	}
	c.run(c.prepareCall, func() { c.endTurn(time.Time{}) }, func() { c.fail(c.recvLoop(c.dispatchFrame)) })
	return c, nil
}

// Call issues a unary RPC and blocks for the response, the context's
// cancellation, or the deadline. The channel applies its own policy around
// the attempts: with Options.Breaker an open circuit fails the call fast
// with ErrCircuitOpen, spending no attempt, and the breaker records the
// call's one outcome; with Options.Retry transient failures are retried.
// CallHedged bypasses both.
func (c *Channel) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	if c.breaker != nil && !c.breaker.allow(method) {
		return nil, ErrCircuitOpen
	}
	var out []byte
	var err error
	if c.opts.Retry != nil {
		out, err = c.callRetried(ctx, method, payload)
	} else {
		out, err = c.call(ctx, method, payload, 0)
	}
	if c.breaker != nil {
		c.breaker.record(method, err)
	}
	return out, err
}

// Breaker returns the channel's circuit breaker, nil unless
// Options.Breaker was set.
func (c *Channel) Breaker() *Breaker { return c.breaker }

// call makes one attempt of a unary call. attempt identifies the attempt
// for the fault plane and server-side retry accounting, together with the
// driver-assigned call ID (if any): the retry attempt number, with
// hedgeAttemptBit set on a hedged leg so it draws independent fault
// decisions.
func (c *Channel) call(ctx context.Context, method string, payload []byte, attempt uint32) ([]byte, error) {
	tc, parentSpan := childTrace(ctx)
	hedged := attempt&hedgeAttemptBit != 0
	callID, haveID := CallIDFromContext(ctx)

	var dec faultplane.Decision
	if c.opts.Faults != nil {
		dec = c.opts.Faults.Decide(faultplane.ScopeClient, method,
			faultplane.Key{Seq: callID, Have: haveID, Attempt: attempt})
		if dec.Reject != trace.OK {
			return nil, c.finish(nil, method, tc, parentSpan, payload, nil, dec.Reject, hedged)
		}
		if dec.Delay > 0 {
			// The injected delay runs in the caller's goroutine (not the
			// sender's) so concurrent calls do not serialize behind it.
			t := time.NewTimer(dec.Delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, c.finish(nil, method, tc, parentSpan, payload, nil, cancelCode(ctx), hedged)
			case <-c.closed:
				t.Stop()
				return nil, c.finish(nil, method, tc, parentSpan, payload, nil, trace.Unavailable, hedged)
			}
		}
		if dec.Corrupt {
			// Mangle a copy; the caller's buffer may be reused.
			payload = append([]byte(nil), payload...)
			faultplane.CorruptPayload(payload)
		}
	}

	deadline := defaultDeadline
	var ctxDeadline time.Time // zero: the caller set none and waits as long as it takes
	if dl, has := ctx.Deadline(); has {
		deadline, ctxDeadline = time.Until(dl), dl
	}
	if deadline <= 0 {
		return nil, c.finish(nil, method, tc, parentSpan, payload, nil, trace.DeadlineExceeded, hedged)
	}

	var callSeq uint64
	if haveID {
		callSeq = callID + 1
	}
	call := &clientCall{
		req: request{
			Method:   method,
			TraceID:  tc.TraceID,
			SpanID:   tc.SpanID,
			Deadline: deadline,
			Payload:  payload,
			CallSeq:  callSeq,
			Attempt:  attempt,
		},
		dropped:    dec.Drop,
		bulk:       len(payload) >= bulkThreshold,
		enqueuedNs: c.sinceEpoch(),
		resultCh:   make(chan *callResult, 1),
	}
	streamID := c.nextStream.Add(1)
	call.streamID = streamID

	c.mu.Lock()
	select {
	case <-c.closed:
		c.mu.Unlock()
		return nil, c.finish(nil, method, tc, parentSpan, payload, nil, trace.Unavailable, hedged)
	default:
	}
	c.pending[streamID] = call
	c.mu.Unlock()

	if !call.bulk && len(payload) <= directSendMax && (ctx.Done() == nil || !ctxDeadline.IsZero()) &&
		len(c.sendQ) == 0 && c.turn.tryLock() {
		// Idle connection, small frame: take the send side's turn here, no
		// hand-off to sendLoop. The write carries the caller's deadline so
		// a stalled peer cannot park it past that; a caller that can be
		// cancelled but set no deadline queues, to stay cancellable.
		c.prepareCall(call)
		c.endTurn(ctxDeadline)
	} else {
		// Enqueue onto the send queue; a full queue is back-pressure, so
		// we block until space, cancellation, or channel death.
		select {
		case c.sendQ <- call:
		case <-ctx.Done():
			c.abandon(call)
			return nil, c.finish(call, method, tc, parentSpan, payload, nil, cancelCode(ctx), hedged)
		case <-c.closed:
			c.abandon(call)
			return nil, c.finish(call, method, tc, parentSpan, payload, nil, trace.Unavailable, hedged)
		}
	}

	select {
	case res := <-call.resultCh:
		rcvdNs := c.sinceEpoch()
		if res.netErr != nil {
			c.abandon(call) // failed by the send side, which leaves pending to the caller
			code := trace.Unavailable
			if res.netErr == errRequestTooLarge {
				code = trace.InvalidArgument // the call's own bytes, not the connection
			}
			return nil, c.finish(call, method, tc, parentSpan, payload, nil, code, hedged)
		}
		resp := &res.resp
		var out []byte
		if res.bulk {
			// Bulk lane: the assembly buffer was built for this call alone,
			// so it transfers to the caller as-is — the zero-copy handoff
			// the lane exists for. It may drop to the GC (legal per the
			// DESIGN.md §11 ownership contract) or be recycled with
			// FreeResponse by high-throughput callers.
			out = resp.Payload
			res.buf = nil
		} else {
			// Copy the payload out of the pooled recv buffer and release
			// it: the caller owns the returned bytes outright.
			var derr error
			out, derr = c.copyOut(resp, res.buf)
			res.buf = nil
			if derr != nil {
				return nil, c.finish(call, method, tc, parentSpan, payload, nil, trace.Internal, hedged)
			}
		}
		if c.observed() {
			c.emit(c.buildSpan(call, method, tc, parentSpan, payload, out, resp, res.rxAtNs, rcvdNs, hedged))
		}
		if resp.Code != trace.OK {
			return nil, &Status{Code: resp.Code, Message: resp.Message}
		}
		return out, nil
	case <-ctx.Done():
		c.abandon(call)
		c.cancelRemote(streamID)
		return nil, c.finish(call, method, tc, parentSpan, payload, nil, cancelCode(ctx), hedged)
	case <-c.closed:
		c.abandon(call)
		return nil, c.finish(call, method, tc, parentSpan, payload, nil, trace.Unavailable, hedged)
	}
}

// copyOut materializes the response payload for the caller — who owns the
// returned slice outright — and releases the pooled recv buffer backing
// resp.Payload. resp.Payload must not be used after copyOut returns.
func (c *Channel) copyOut(resp *response, buf []byte) ([]byte, error) {
	defer wire.PutBuf(buf)
	if resp.Compressed {
		// One allocation of exactly the declared size, refused past what
		// any frame may carry (the bulk lane's rule, conn.chunk).
		return c.comp.DecompressAppend(nil, resp.Payload, wire.MaxFrameSize)
	}
	if resp.Payload == nil {
		return nil, nil
	}
	return append(make([]byte, 0, len(resp.Payload)), resp.Payload...), nil
}

// FreeResponse hands a response buffer returned by Call back to the data
// plane's buffer pool. Responses that rode the bulk lane arrive in a
// pooled buffer that otherwise drops to the GC when the caller is done;
// high-throughput callers recycle it here to keep the receive path
// allocation-free. The caller must own buf outright (no live aliases)
// and must not touch it afterwards. Freeing is always optional — any
// response buffer may simply go out of scope instead.
func FreeResponse(buf []byte) {
	wire.PutBuf(buf)
}

func cancelCode(ctx context.Context) trace.ErrorCode {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return trace.DeadlineExceeded
	}
	return trace.Cancelled
}

// abandon removes a pending call so a late response is dropped, and
// reclaims a response that beat it: deliver hands results over under c.mu,
// so one is either in resultCh by now or will never be.
func (c *Channel) abandon(call *clientCall) {
	c.mu.Lock()
	delete(c.pending, call.streamID)
	c.mu.Unlock()
	select {
	case res := <-call.resultCh:
		wire.PutBuf(res.buf)
	default:
	}
}

// deliver hands res, and with it res.buf, to the call pending on streamID;
// with none (cancelled, duplicate, already failed by the send side) it
// releases the buffer. The hand-over happens under c.mu so it cannot
// interleave with abandon.
func (c *Channel) deliver(streamID uint64, res *callResult) {
	c.mu.Lock()
	call := c.pending[streamID]
	delete(c.pending, streamID)
	if call != nil {
		select {
		case call.resultCh <- res:
			res = nil
		default:
		}
	}
	c.mu.Unlock()
	if res != nil {
		wire.PutBuf(res.buf)
	}
}

// cancelRemote tells the server to stop working on streamID. The frame
// rides the send queue behind the request it cancels, so a caller whose
// deadline has passed never touches a possibly stalled socket; a full
// queue drops it, and the deadline the request carried ends the handler.
func (c *Channel) cancelRemote(streamID uint64) {
	select {
	case c.sendQ <- &clientCall{streamID: streamID, cancel: true}:
	default:
	}
}

// newSpan starts a call's span: its identity, sizes and outcome, and the
// two components the client's send side stamps (call is nil when the call
// never got that far).
func (c *Channel) newSpan(call *clientCall, method string, tc TraceContext, parentSpan trace.SpanID, reqPayload, respPayload []byte, code trace.ErrorCode, hedged bool) *trace.Span {
	span := &trace.Span{
		TraceID:       tc.TraceID,
		SpanID:        tc.SpanID,
		ParentID:      parentSpan,
		Method:        method,
		Service:       ServiceOf(method),
		ClientCluster: c.opts.ClusterName,
		ServerCluster: c.serverCluster,
		RequestBytes:  int64(len(reqPayload)),
		ResponseBytes: int64(len(respPayload)),
		Err:           code,
		Hedged:        hedged,
	}
	if call != nil {
		if deq := call.deqNs.Load(); deq != 0 {
			span.Breakdown[trace.ClientSendQueue] = time.Duration(deq - call.enqueuedNs)
			if sent := call.sentNs.Load(); sent != 0 {
				span.Breakdown[trace.ReqProcStack] = time.Duration(sent - deq)
			}
		}
	}
	return span
}

// finish emits an error span, if anyone observes it, and returns the
// matching error.
func (c *Channel) finish(call *clientCall, method string, tc TraceContext, parentSpan trace.SpanID, reqPayload, respPayload []byte, code trace.ErrorCode, hedged bool) error {
	if c.observed() {
		c.emit(c.newSpan(call, method, tc, parentSpan, reqPayload, respPayload, code, hedged))
	}
	if code == trace.Unavailable {
		if ce := c.err.Load(); ce != nil && ce.err != nil {
			return &Status{Code: trace.Unavailable, Message: ce.err.Error()}
		}
		return ErrUnavailable
	}
	return codeToError(code)
}

// buildSpan assembles the full nine-component breakdown from client
// timestamps and the server-reported timings.
func (c *Channel) buildSpan(call *clientCall, method string, tc TraceContext, parentSpan trace.SpanID, reqPayload, respPayload []byte, resp *response, rxAtNs, rcvdNs int64, hedged bool) *trace.Span {
	span := c.newSpan(call, method, tc, parentSpan, reqPayload, respPayload, resp.Code, hedged)
	b := &span.Breakdown
	b[trace.ServerRecvQueue] = resp.Timings.RecvQueue
	b[trace.ServerApp] = resp.Timings.App
	b[trace.ServerSendQueue] = resp.Timings.SendQueue
	b[trace.RespProcStack] = resp.Timings.RespProc
	b[trace.ClientRecvQueue] = time.Duration(rcvdNs - rxAtNs)

	// Wire time is everything between the request leaving the client and
	// the response arriving, minus the server's residence time. Split it
	// between the directions in proportion to bytes moved.
	var wireTotal time.Duration
	if sent := call.sentNs.Load(); sent != 0 {
		wireTotal = time.Duration(rxAtNs-sent) - resp.Timings.Elapsed
	}
	if wireTotal < 0 {
		// The server had the request before the write returned here to be
		// stamped: that overlap is in ReqProcStack too, so take it out there.
		b[trace.ReqProcStack] = max(0, b[trace.ReqProcStack]+wireTotal)
		wireTotal = 0
	}
	reqB, respB := float64(len(reqPayload)+64), float64(len(respPayload)+64)
	reqFrac := reqB / (reqB + respB)
	b[trace.ReqNetworkWire] = time.Duration(float64(wireTotal) * reqFrac)
	b[trace.RespNetworkWire] = wireTotal - b[trace.ReqNetworkWire]
	return span
}

// observed reports whether a span would reach anyone: an unobserved call
// builds none.
func (c *Channel) observed() bool {
	return c.opts.Observer != nil || c.opts.Collector != nil
}

// emit hands a finished span to the Observer, then the Collector. The
// observer goes first because it completes the span (the plane stamps
// Start and the CPU split), and a collector keeps a copy of what it sees.
func (c *Channel) emit(span *trace.Span) {
	if c.opts.Observer != nil {
		c.opts.Observer.Observe(span)
	}
	if c.opts.Collector != nil {
		c.opts.Collector.Collect(span)
	}
}

// ServiceOf extracts the service name from a fully qualified method
// ("service.Type/Method" -> "service").
func ServiceOf(method string) string {
	if i := strings.IndexAny(method, "./"); i > 0 {
		return method[:i]
	}
	return method
}

// endTurn flushes the turn's batch (by: write deadline, zero for none) and
// releases the turn. A failed write kills the channel: the stream may be
// torn, and a write deadline leaves the conn open.
func (c *Channel) endTurn(by time.Time) {
	err := c.flushBatch(by)
	c.turn.unlock()
	if err != nil {
		c.fail(err)
	}
}

// errRequestTooLarge fails a call whose request is past what a frame may
// carry. The call ends InvalidArgument, as a server ends a peer's oversize
// bulk request, and is not retried: another attempt sends the same bytes.
var errRequestTooLarge = errors.New("stubby: request exceeds maximum frame size")

// prepareCall stamps the dequeue timestamp and marshals one call's
// request envelope into a pooled buffer, appending it to the turn's batch
// — the client side of ReqProcStack. Caller holds the turn.
func (c *Channel) prepareCall(call *clientCall) {
	call.deqNs.Store(c.sinceEpoch())
	if call.dropped {
		// Fault plane: the request vanishes. The call stays pending until
		// its deadline expires, exactly like a packet lost past the
		// transport's visibility.
		return
	}
	if call.cancel {
		c.turn.add(call, nil, 0)
		return
	}
	req := &call.req
	if call.bulk {
		// Bulk lane: the payload leaves as chunk frames sealed straight
		// from the caller's buffer (stable until the call resolves), so it
		// is never copied into the envelope — and never compressed; bulk
		// payloads are past the size where compression pays its cycles.
		if len(req.Payload) > wire.MaxFrameSize {
			call.fail(errRequestTooLarge)
			return
		}
		call.bulkPayload = req.Payload
		req.Payload = nil
		env := appendRequest(wire.GetBuf(len(req.Method)+envelopeOverhead), req)
		c.turn.add(call, env, len(env)+len(call.bulkPayload))
		return
	}
	req.Payload, req.Compressed = c.compress(req.Payload)
	env := appendRequest(wire.GetBuf(len(req.Payload)+len(req.Method)+envelopeOverhead), req)
	if len(env)+secure.Overhead > wire.MaxFrameSize {
		wire.PutBuf(env)
		call.fail(errRequestTooLarge)
		return
	}
	c.turn.add(call, env, len(env))
}

// flushBatch sends the turn's batch (sendTurn.flush), leaving out calls
// abandoned since they were queued, and stamps or fails every call that
// went. Caller holds the turn; by is the write deadline (zero: none).
func (c *Channel) flushBatch(by time.Time) error {
	t := &c.turn
	if len(t.batch) == 0 {
		return nil
	}
	c.mu.Lock()
	for i, call := range t.batch {
		if _, live := c.pending[call.streamID]; !live && !call.cancel {
			t.batch[i] = nil // abandoned before send
		}
	}
	c.mu.Unlock()
	err := t.flush(c.tr, by)
	if err == errWriteExpired {
		err = nil // the direct call's own deadline passed, no byte left: its ctx ends it
	}
	sentNs := c.sinceEpoch()
	for i, call := range t.batch {
		wire.PutBuf(t.envs[i])
		if call == nil {
			continue
		}
		if err != nil {
			call.fail(err)
		} else {
			call.sentNs.Store(sentNs)
		}
	}
	return err
}

// frame implements outbound; a nil call is one flushBatch found abandoned.
func (call *clientCall) frame() (typ byte, streamID uint64, bulk []byte) {
	switch {
	case call == nil:
		return 0, 0, nil
	case call.bulk:
		return wire.FrameBulkRequest, call.streamID, call.bulkPayload
	case call.cancel:
		return wire.FrameCancel, call.streamID, nil
	}
	return wire.FrameRequest, call.streamID, nil
}

// release implements outbound. A queued call holds no pooled buffer — its
// envelope is built in its turn — and its caller is watching the channel.
func (call *clientCall) release() {}

// fail ends the call with a connection-level error, unless a result beat it.
func (call *clientCall) fail(err error) {
	select {
	case call.resultCh <- &callResult{netErr: err}:
	default:
	}
}

// dispatchFrame routes one decrypted inbound frame to the waiting call or
// stream, taking ownership of m.plain. It returns false when the
// connection must come down (the channel is already failed by then).
func (c *Channel) dispatchFrame(m recvMsg) bool {
	plain := m.plain
	switch m.typ {
	case wire.FrameResponse:
		res := &callResult{buf: plain, rxAtNs: c.sinceEpoch()}
		if perr := parseResponseInto(&res.resp, plain); perr != nil {
			wire.PutBuf(plain)
			c.deliver(m.streamID, c.malformedResponse())
			return true
		}
		c.serverLoad.Store(int64(res.resp.Load))
		// Ownership of the pooled buffer travels with the result; the
		// waiting call releases it after copying the payload out.
		c.deliver(m.streamID, res)
	case wire.FrameBulkResponse:
		// Envelope of a bulk-lane response: stash it and collect the
		// payload from the chunk frames that follow.
		b := &bulkAsm{}
		perr := parseResponseInto(&b.resp, plain)
		// Message was copied out by the parse; nothing aliases plain.
		b.resp.Payload = nil
		wire.PutBuf(plain)
		switch {
		case perr != nil:
			c.deliver(m.streamID, c.malformedResponse())
		case b.resp.BulkSize == 0:
			c.deliverBulk(m.streamID, b)
		default:
			b.hint = int(min(b.resp.BulkSize, maxBulkHint))
			c.beginBulk(m.streamID, b)
		}
	case wire.FrameStreamChunk:
		if b, err := c.chunk(m); err != nil {
			// Coded, and only this call: the connection and its other
			// calls carry on.
			resp := response{Code: trace.Internal, Message: "bulk response exceeds maximum size"}
			c.deliver(m.streamID, &callResult{resp: resp, rxAtNs: c.sinceEpoch()})
		} else if b != nil {
			c.deliverBulk(m.streamID, b)
		}
	case wire.FrameGoAway:
		wire.PutBuf(plain)
		c.fail(ErrUnavailable)
		return false
	default:
		c.control(m)
	}
	return true
}

// malformedResponse ends the one call whose response envelope does not
// parse, coded Internal like a response past its size or a failed inflate:
// the connection and its other calls carry on, and a retry would read the
// same server's bytes.
func (c *Channel) malformedResponse() *callResult {
	resp := response{Code: trace.Internal, Message: "malformed response envelope"}
	return &callResult{resp: resp, rxAtNs: c.sinceEpoch()}
}

// deliverBulk completes a bulk-lane response: b.data (the assembly buffer,
// nil for an empty or error response) transfers to the waiting caller.
func (c *Channel) deliverBulk(streamID uint64, b *bulkAsm) {
	b.resp.Payload = b.data
	c.serverLoad.Store(int64(b.resp.Load))
	c.deliver(streamID, &callResult{resp: b.resp, buf: b.data, bulk: true, rxAtNs: c.sinceEpoch()})
}

// ServerLoad returns the server's most recently reported load estimate
// (receive-queue depth plus executing handlers), 0 until the first
// response arrives. It is the piggybacked signal load-aware balancing
// policies consume.
func (c *Channel) ServerLoad() int { return int(c.serverLoad.Load()) }

// InFlight returns how many calls on this channel await a response.
func (c *Channel) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// fail kills the channel, once: the first error is the one callers see,
// the socket comes down (the connection core's shutdown, under its once),
// and all pending and future calls and streams error out.
func (c *Channel) fail(err error) {
	c.closeOnce.Do(func() {
		c.err.Store(&channelError{err: err})
		close(c.closed)
		c.closeErr = c.tr.close()
		c.mu.Lock()
		pending := c.pending
		c.pending = make(map[uint64]*clientCall)
		c.mu.Unlock()
		for _, call := range pending {
			call.fail(err)
		}
		c.streams.failAll()
	})
}

// dead reports whether the channel has failed or been closed.
func (c *Channel) dead() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// Close shuts the channel down: pending calls fail with Unavailable and
// the connection's loops are joined.
func (c *Channel) Close() error {
	c.fail(ErrUnavailable)
	c.loops.Wait()
	return c.closeErr
}
