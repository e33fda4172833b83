package stubby

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"rpcscale/internal/sanitize"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

// Bidirectional streaming RPCs over the bulk lane: one stream-open
// envelope, then chunked messages in both directions under per-stream
// credit windows, terminated by a final status chunk from the server (or
// a reset from either side). The paper's tracing methodology excludes
// streaming RPCs from its sampling ("the sampling omits some RPC classes,
// such as streaming RPCs that are used for some bulk-data transfers",
// §2.1); this implementation mirrors that — streams do not emit trace
// spans — while giving the stack the bulk-transfer class those services
// actually use.

// BidiHandler serves a bidirectional streaming method: it exchanges
// messages on stream and returns the final status. The stream's Recv
// returns io.EOF once the client half-closes; Send fails once the client
// resets or the connection dies.
type BidiHandler func(ctx context.Context, stream *Stream) error

// Stream is one end of a bidirectional message stream multiplexed over a
// connection. Send and CloseSend may run concurrently with Recv, but each
// of the two directions expects a single goroutine.
//
// Recv returns a pooled buffer that stays valid until the next Recv or
// Close — the zero-copy window of the extended buffer-ownership contract
// (DESIGN.md §12); callers that retain a message must copy it.
type Stream struct {
	tr       *transport
	table    *streamTable // its connection's stream table, left on terminate
	streamID uint64

	ctx    context.Context
	cancel context.CancelFunc

	// sendWin is the credit this end may spend; the peer grants it back
	// as its application consumes messages.
	sendWin *creditWindow

	sendMu     sync.Mutex
	sendClosed bool

	// Inbound side. The connection's read loop appends assembled messages
	// to inq and never blocks on a slow consumer. held is the credit the
	// queued messages were charged; with the message being assembled it
	// may not pass streamWindow, the window this end granted
	// (deliverChunk), so a peer that sends without credit loses the
	// stream, not our memory.
	recvMu  sync.Mutex
	inq     []inboundMsg
	inqHead int
	held    int64
	term    error // terminal status; nil with termSet means clean EOF
	termSet bool
	dead    bool // fully torn down: late deliveries are dropped
	//rpclint:owns partial-message assembly; released by deliver on the
	// final chunk (moves into inq) or by teardown.
	asm       []byte
	asmStatus bool // the message being assembled is a status envelope

	notify chan struct{} // capacity 1: wake for Recv

	// cur is the pooled buffer handed out by the last Recv; released on
	// the next Recv or Close by the receiving goroutine itself, so a
	// remote teardown can never recycle bytes the application still reads.
	//rpclint:owns
	cur []byte

	// grantBuf is scratch for WINDOW_UPDATE payloads (receiver goroutine).
	grantBuf [16]byte

	done     chan struct{}
	doneOnce sync.Once
}

// lockRecv and unlockRecv wrap recvMu with the sanitize rank checker;
// every acquisition of the inbound-side lock goes through them.
func (s *Stream) lockRecv() {
	s.recvMu.Lock()
	if sanitize.Enabled {
		sanitize.LockAcquired(sanitize.RankStreamRecv, "stubby.Stream.recvMu")
	}
}

func (s *Stream) unlockRecv() {
	if sanitize.Enabled {
		sanitize.LockReleased(sanitize.RankStreamRecv)
	}
	s.recvMu.Unlock()
}

// inboundMsg is one fully assembled inbound message and the credit its
// sender spent on it.
type inboundMsg struct {
	data   []byte
	charge int64
}

func newStream(tr *transport, table *streamTable, streamID uint64) *Stream {
	return &Stream{
		tr:       tr,
		table:    table,
		streamID: streamID,
		sendWin:  newCreditWindow(streamWindow),
		notify:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
}

// msgCharge is the credit one message costs: its payload bytes, minimum 1
// so empty messages cannot bypass flow control.
func msgCharge(n int) int64 {
	if n == 0 {
		return 1
	}
	return int64(n)
}

// OpenStream starts a bidirectional stream. Messages flow with Send and
// Recv; CloseSend half-closes the sending direction (the server's Recv
// then returns io.EOF); Close abandons the stream, resetting it on the
// server. The stream ends when Recv returns io.EOF (clean final status)
// or an error. Pool.OpenStream spreads streams across a pool's members.
func (c *Channel) OpenStream(ctx context.Context, method string) (*Stream, error) {
	tc, _ := childTrace(ctx)
	deadline := defaultDeadline
	if dl, has := ctx.Deadline(); has {
		deadline = time.Until(dl)
	}
	if deadline <= 0 {
		return nil, ErrDeadlineExceeded
	}
	req := &request{
		Method:   method,
		TraceID:  tc.TraceID,
		SpanID:   tc.SpanID,
		Deadline: deadline,
	}
	env := appendRequest(wire.GetBuf(len(method)+envelopeOverhead), req)

	streamID := c.nextStream.Add(1)
	st := newStream(c.tr, &c.streams, streamID)
	st.ctx, st.cancel = context.WithCancel(ctx)
	if !c.streams.add(streamID, st) {
		st.cancel()
		wire.PutBuf(env)
		return nil, ErrUnavailable
	}

	// Streams bypass the unary send queue: the open frame goes out
	// immediately (stream setup is not part of the unary queue study).
	err := c.tr.send(wire.FrameStreamOpen, streamID, env)
	wire.PutBuf(env)
	if err != nil {
		c.streams.drop(streamID)
		st.cancel()
		return nil, ErrUnavailable
	}

	// Relay caller cancellation to the server as a reset.
	go func() {
		select {
		case <-st.ctx.Done():
			st.terminate(codeToError(cancelCode(st.ctx)), true)
		case <-st.done:
		}
	}()
	return st, nil
}

// Send transmits one message. It blocks while the peer's credit window is
// exhausted (the slow-reader backpressure of DESIGN.md §12) and fails if
// the stream or its context ends first. A message larger than the stream
// window (256 KiB) cannot be sent.
func (s *Stream) Send(msg []byte) error {
	charge := msgCharge(len(msg))
	if charge > streamWindow {
		return Errorf(trace.InvalidArgument,
			"stream message of %d bytes exceeds the %d-byte stream window", len(msg), streamWindow)
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if sanitize.Enabled {
		sanitize.LockAcquired(sanitize.RankStreamSend, "stubby.Stream.sendMu")
		defer sanitize.LockReleased(sanitize.RankStreamSend)
	}
	if s.sendClosed {
		return Errorf(trace.InvalidArgument, "send on closed stream")
	}
	if err := s.sendWin.take(charge, s.ctx); err != nil {
		return err
	}
	if err := s.tr.sendChunks(s.streamID, msg, 0); err != nil {
		return ErrUnavailable
	}
	return nil
}

// CloseSend half-closes the stream: the peer's Recv returns io.EOF once
// it drains the messages already sent. Receiving continues normally.
func (s *Stream) CloseSend() error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if sanitize.Enabled {
		sanitize.LockAcquired(sanitize.RankStreamSend, "stubby.Stream.sendMu")
		defer sanitize.LockReleased(sanitize.RankStreamSend)
	}
	if s.sendClosed {
		return nil
	}
	s.sendClosed = true
	select {
	case <-s.done:
		return nil // already torn down; the peer is gone
	default:
	}
	if err := s.tr.sendHalfClose(s.streamID); err != nil {
		return ErrUnavailable
	}
	return nil
}

// Recv returns the next inbound message, blocking until one arrives or
// the stream ends: io.EOF after a clean end (final OK status, or the
// peer's half-close on the server side), the terminal error otherwise.
// Messages already received are drained before the terminal state is
// reported. The returned slice is only valid until the next Recv or
// Close.
func (s *Stream) Recv() ([]byte, error) {
	if s.cur != nil {
		wire.PutBuf(s.cur)
		s.cur = nil
	}
	for {
		s.lockRecv()
		if s.inqHead < len(s.inq) {
			m := s.inq[s.inqHead]
			s.inq[s.inqHead] = inboundMsg{}
			s.inqHead++
			s.held -= m.charge
			if s.inqHead == len(s.inq) {
				s.inq, s.inqHead = s.inq[:0], 0
			}
			s.unlockRecv()
			s.cur = m.data
			// The application consumed the message: grant its charge back
			// so the sender can proceed.
			s.sendGrant(m.charge)
			return m.data, nil
		}
		if s.termSet {
			term := s.term
			s.unlockRecv()
			if term == nil {
				return nil, io.EOF
			}
			return nil, term
		}
		ch := s.notify
		s.unlockRecv()
		<-ch
	}
}

// sendGrant emits a WINDOW_UPDATE for n consumed credits.
func (s *Stream) sendGrant(n int64) {
	buf := wire.AppendUvarint(s.grantBuf[:0], uint64(n))
	_ = s.tr.send(wire.FrameWindowUpdate, s.streamID, buf)
}

// Close abandons the stream. If it is still live, the peer receives a
// reset: on the server that promptly cancels the handler's context and
// fails its blocked Sends. Close releases every pooled buffer this end
// holds, including the one handed out by the last Recv.
func (s *Stream) Close() error {
	s.terminate(ErrCancelled, true)
	if s.cur != nil {
		wire.PutBuf(s.cur)
		s.cur = nil
	}
	return nil
}

// terminate tears the stream down once: records the terminal state for
// Recv (keeping an earlier one), kills the send window, cancels the
// context, returns pooled buffers, detaches from the owner's stream
// table, and — when notifyPeer is set and the stream is still live —
// sends a reset frame.
func (s *Stream) terminate(err error, notifyPeer bool) {
	s.doneOnce.Do(func() {
		close(s.done)
		s.lockRecv()
		if !s.termSet {
			s.termSet, s.term = true, err
		}
		s.dead = true
		for i := s.inqHead; i < len(s.inq); i++ {
			wire.PutBuf(s.inq[i].data)
			s.inq[i] = inboundMsg{}
		}
		s.inq, s.inqHead, s.held = nil, 0, 0
		if s.asm != nil {
			wire.PutBuf(s.asm)
			s.asm = nil
		}
		// cancel is read under recvMu: on the server it is installed by a
		// worker (handleBidi) that may race a reset from the read loop.
		cancel := s.cancel
		s.unlockRecv()
		s.sendWin.kill(err)
		if cancel != nil {
			cancel()
		}
		if notifyPeer {
			_ = s.tr.sendReset(s.streamID, StatusFromError(err))
		}
		s.table.drop(s.streamID)
		select {
		case s.notify <- struct{}{}:
		default:
		}
	})
}

// finished reports whether the stream has been torn down.
func (s *Stream) finished() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// deliverChunk routes one inbound chunk into the stream. Only the
// connection's read loop calls it; ownership of data (a pooled buffer)
// transfers here. It never blocks: completed messages queue on inq and
// the credit window bounds how far a slow consumer can fall behind, so a
// stalled stream cannot head-of-line-block the connection. A chunk that
// would take the unconsumed bytes past that window — the peer sent
// without credit — ends the stream with an InvalidArgument reset and
// releases its buffers; the connection and its other streams carry on.
func (s *Stream) deliverChunk(flags byte, data []byte) {
	s.lockRecv()
	if s.dead {
		s.unlockRecv()
		wire.PutBuf(data)
		return
	}
	if s.overWindowLocked(flags, len(data)) {
		s.unlockRecv()
		wire.PutBuf(data)
		s.terminate(Errorf(trace.InvalidArgument,
			"stream peer sent past its %d-byte credit window", streamWindow), true)
		return
	}
	var msg []byte
	haveMsg := false
	switch {
	case s.asm == nil && flags&chunkEndMsg != 0:
		// Single-chunk message: hand the pooled buffer through untouched.
		msg, haveMsg = data, true
	case s.asm == nil && len(data) == 0:
		// Bare control chunk (half-close marker): no message payload.
		wire.PutBuf(data)
	default:
		if s.asm == nil {
			s.asm = wire.GetBuf(2 * len(data))
		}
		s.asm = append(s.asm, data...)
		wire.PutBuf(data)
		if flags&chunkEndMsg != 0 {
			msg, haveMsg = s.asm, true
			s.asm = nil
		}
	}
	if flags&chunkStatus != 0 {
		s.asmStatus = true
	}
	if haveMsg {
		if s.asmStatus {
			s.asmStatus = false
			s.applyStatusLocked(msg)
			wire.PutBuf(msg)
		} else {
			charge := msgCharge(len(msg))
			s.inq = append(s.inq, inboundMsg{data: msg, charge: charge})
			s.held += charge
		}
	}
	if flags&chunkEndStream != 0 && !s.termSet {
		s.termSet = true // term stays nil: clean end of direction
	}
	s.unlockRecv()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// maxStatusEnvelope bounds the final status envelope a stream accepts: it
// is exempt from credit, and finishBidi keeps it to one chunk.
const maxStatusEnvelope = bulkChunkSize

// overWindowLocked reports whether a chunk of n bytes with these flags
// breaks the receive bound: a data chunk may not take the queued charges
// plus the message being assembled past streamWindow, and a status chunk
// may not make a status envelope larger than maxStatusEnvelope. Caller
// holds recvMu.
func (s *Stream) overWindowLocked(flags byte, n int) bool {
	msg := len(s.asm) + n
	if flags&chunkStatus != 0 {
		return msg > maxStatusEnvelope
	}
	need := int64(msg)
	if flags&chunkEndMsg != 0 {
		need = msgCharge(msg)
	}
	return s.held+need > streamWindow
}

// applyStatusLocked records the final status carried in a status chunk.
// Caller holds recvMu.
func (s *Stream) applyStatusLocked(env []byte) {
	var resp response
	var term error
	if perr := parseResponseInto(&resp, env); perr != nil {
		term = Errorf(trace.Internal, "stream status: %v", perr)
	} else if resp.Code != trace.OK {
		term = &Status{Code: resp.Code, Message: resp.Message}
	}
	if !s.termSet {
		s.termSet, s.term = true, term
	}
}

// grantFromPeer applies an inbound WINDOW_UPDATE.
func (s *Stream) grantFromPeer(plain []byte) {
	if n, k := wire.Uvarint(plain); k > 0 && n > 0 {
		s.sendWin.grant(int64(n))
	}
}

// resetFromPeer applies an inbound reset frame: code then message text.
func (s *Stream) resetFromPeer(plain []byte) {
	st := &Status{Code: trace.Cancelled, Message: "stream reset by peer"}
	if code, n := wire.Uvarint(plain); n > 0 {
		st = &Status{Code: trace.ErrorCode(code), Message: string(plain[n:])}
	}
	s.terminate(st, false)
}

// --- Server side ---

// RegisterBidi installs a bidirectional streaming handler. Unary and
// streaming methods share one namespace.
func (s *Server) RegisterBidi(method string, h BidiHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("stubby: duplicate handler for %q", method))
	}
	if _, dup := s.bidiHandlers[method]; dup {
		panic(fmt.Sprintf("stubby: duplicate stream handler for %q", method))
	}
	s.bidiHandlers[method] = h
	s.methodNames[method] = method
}

// handleBidi runs on a worker for a queued stream-open, decoded by
// acceptStream: it sets up the stream's deadline and hands the handler its
// own goroutine — a blocked stream Send must not pin a worker the unary
// traffic needs.
func (s *Server) handleBidi(call *serverCall) {
	st := call.stream
	req := &call.req
	s.mu.RLock()
	bh := s.bidiHandlers[req.Method]
	s.mu.RUnlock()

	// Install the handler context under recvMu so a concurrent terminate
	// (a reset racing the open's hand-off to this worker) observes it; if
	// the stream already died, cancel here since terminate could not.
	st.lockRecv()
	st.ctx, st.cancel = requestContext(call.conn.ctx, req)
	cancel, dead := st.cancel, st.dead
	st.unlockRecv()
	if dead {
		cancel()
		return
	}

	if bh == nil {
		s.finishBidi(st, Errorf(trace.EntityNotFound, "no stream handler for method %q", req.Method))
		return
	}
	go s.runBidi(st, bh)
}

// runBidi hosts one stream handler on its own goroutine.
func (s *Server) runBidi(st *Stream, h BidiHandler) {
	herr := h(st.ctx, st)
	if herr == nil && st.ctx.Err() != nil {
		herr = ctxErrToStatus(st.ctx.Err())
	}
	s.finishBidi(st, herr)
}

// finishBidi sends the final status chunk (unless the stream already died
// to a reset or connection failure) and tears down the server-side state,
// returning every pooled buffer the stream still holds.
func (s *Server) finishBidi(st *Stream, herr error) {
	if !st.finished() {
		stat := StatusFromError(herr)
		resp := response{Code: stat.Code}
		if stat.Code != trace.OK {
			// Cut to what one status chunk holds (maxStatusEnvelope).
			resp.Message = stat.Message[:min(len(stat.Message), maxStatusEnvelope-envelopeOverhead)]
		}
		env := appendResponse(wire.GetBuf(len(resp.Message)+envelopeOverhead), &resp)
		// The status chunk is exempt from flow control, like HTTP/2
		// headers: it must reach a client that has stopped consuming.
		_ = st.tr.sendChunks(st.streamID, env, chunkStatus|chunkEndStream)
		wire.PutBuf(env)
	}
	st.terminate(StatusFromError(herr), false)
	if st.cur != nil {
		wire.PutBuf(st.cur)
		st.cur = nil
	}
}
