package stubby

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rpcscale/internal/sanitize"
	"rpcscale/internal/secure"
	"rpcscale/internal/wire"
)

// transport wraps a net.Conn with framing and per-direction AES-GCM
// encryption. Frame headers (type, stream ID, length) are in the clear —
// as in TLS record framing — while every payload is encrypted.
//
// Key establishment uses a pre-shared secret configured on both ends
// (Options.Secret): each direction derives its own session key. A real
// deployment would run a handshake (ALTS/TLS); the cryptographic work per
// message, which is what the cycle tax measures, is identical.
//
// The send side is a batching drain: frames are sealed directly into the
// wire.Writer's buffer under sendMu and flushed with one Write. A batching
// caller (sendTurn.flush) holds the lock across several appendLocked calls
// and a single flushLocked; one-shot callers use send.
//
// Bulk-lane chunk frames take the scatter-gather path instead: the chunk
// is sealed straight from the caller's buffer into a pooled buffer —
// exactly one cipher pass over the payload — and queued by reference on
// the wire.Writer, whose Flush hands the kernel a writev iovec list. The
// pooled chunk buffers come back through the writer's flush hook.
type transport struct {
	conn net.Conn

	// codec, when non-nil, is the connection's seal/open worker pool
	// (DESIGN.md §16): large frames are ciphered concurrently off the
	// loops, harvested in submission order so the wire sees the same
	// frame sequence as the inline path. Set by startCodec before the
	// connection's loops start; nil means the fully inline data plane.
	codec *codecPool

	sendMu  sync.Mutex
	sendKey *secure.Session
	writer  *wire.Writer
	// aad is scratch for the chunk flags byte sealed as additional
	// authenticated data; sendMu serializes access.
	aad [1]byte
	// writeBy records that the conn has a write deadline armed (see
	// flushLocked); sendMu serializes access.
	writeBy bool

	recvMu  sync.Mutex
	recvKey *secure.Session
	reader  *wire.Reader
	// handedOff counts frames the receive pump has passed to its dispatcher
	// goroutine that are not yet dispatched (see recvLoop).
	handedOff atomic.Int32
}

// Chunk flags: the single clear-text byte leading every FrameStreamChunk
// payload, authenticated as AAD so it cannot be flipped in flight.
const (
	// chunkEndMsg marks the final chunk of one application message.
	chunkEndMsg = 0x01
	// chunkEndStream marks the sender's half-close: no further chunks
	// follow in this direction.
	chunkEndStream = 0x02
	// chunkStatus marks a chunk whose plaintext is a response envelope
	// carrying the stream's final status rather than application data.
	chunkStatus = 0x04
)

// bulkChunkSize is the chunking granularity of the bulk lane. 64 KiB
// amortizes per-chunk seal and frame overhead to well under 1% while
// keeping per-chunk pool buffers within the pool's size classes.
const bulkChunkSize = 64 << 10

// newTransport builds a transport over conn. dirSend/dirRecv label the key
// derivation directions and must be mirrored on the peer.
func newTransport(conn net.Conn, psk []byte, dirSend, dirRecv string, stats *secure.Stats) (*transport, error) {
	sendSess, err := secure.NewSession(secure.DeriveKey(psk, dirSend), stats)
	if err != nil {
		return nil, fmt.Errorf("stubby: send session: %w", err)
	}
	recvSess, err := secure.NewSession(secure.DeriveKey(psk, dirRecv), stats)
	if err != nil {
		return nil, fmt.Errorf("stubby: recv session: %w", err)
	}
	w := wire.NewWriter(conn)
	// Chunk buffers queued by reference are released once the kernel has
	// consumed them (per the DESIGN.md §11 ownership contract, the writer
	// holds them between append and flush).
	w.SetFlushHook(func(segs [][]byte) {
		for _, s := range segs {
			wire.PutBuf(s)
		}
	})
	return &transport{
		conn:    conn,
		sendKey: sendSess,
		writer:  w,
		recvKey: recvSess,
		reader:  wire.NewReader(conn),
	}, nil
}

// lockSend acquires the send lock for a batching sequence of appendLocked
// calls ending in flushLocked; unlockSend releases it. Under the sanitize
// tag they also track the lock's rank for inversion checking.
func (t *transport) lockSend() {
	t.sendMu.Lock()
	if sanitize.Enabled {
		sanitize.LockAcquired(sanitize.RankTransportSend, "stubby.transport.sendMu")
	}
}

func (t *transport) unlockSend() {
	if sanitize.Enabled {
		sanitize.LockReleased(sanitize.RankTransportSend)
	}
	t.sendMu.Unlock()
}

// sendTurn is a connection's turn lock and the batching state it guards.
// Whoever holds it is the connection's one sender for that turn: the drain
// loop (conn.sendLoop) from dequeue to flush, or — on an idle connection —
// a goroutine dispatching its own small frame directly. The holder also
// owns the connection's compression scratch buffer (conn.zbuf). T is the
// queued item type.
type sendTurn[T outbound] struct {
	mu    sync.Mutex // rank sanitize.RankSendTurn
	batch []T
	envs  [][]byte    // pooled envelopes, parallel to batch
	size  int         // bytes the batch will put on the wire so far
	jobs  []*codecJob // the batch's submitted seal jobs, in order
	n     []int       // per-entry job count (0: that entry stayed inline)
}

// lock takes the turn and starts an empty batch; tryLock does so only if
// the turn is free.
func (t *sendTurn[T]) lock() {
	t.mu.Lock()
	t.taken()
}

func (t *sendTurn[T]) tryLock() bool {
	ok := t.mu.TryLock()
	if ok {
		t.taken()
	}
	return ok
}

func (t *sendTurn[T]) taken() {
	if sanitize.Enabled {
		sanitize.LockAcquired(sanitize.RankSendTurn, "stubby.sendTurn.mu")
	}
	t.batch, t.envs, t.size = t.batch[:0], t.envs[:0], 0
}

// add appends one prepared entry: the item, its envelope, and the bytes it
// will put on the wire.
func (t *sendTurn[T]) add(item T, env []byte, wireBytes int) {
	t.batch, t.envs, t.size = append(t.batch, item), append(t.envs, env), t.size+wireBytes
}

func (t *sendTurn[T]) unlock() {
	if sanitize.Enabled {
		sanitize.LockReleased(sanitize.RankSendTurn)
	}
	t.mu.Unlock()
}

// outbound is a send-queue and batch entry: frame says what it puts on the
// wire — an envelope frame of type typ (0: nothing, the entry was
// abandoned) and, on the bulk lane, the payload that follows it as chunk
// frames; release returns the pooled buffers it holds, when it has been
// sent or never will be.
type outbound interface {
	frame() (typ byte, streamID uint64, bulk []byte)
	release()
}

// flush seals the batch's envelopes into tr's write buffer and flushes
// them with a single write (by: write deadline, zero for none). With a
// codec pool attached, large bulk payloads are handed to the workers
// before the send lock is taken, so they are sealed while this goroutine
// seals the envelopes inline; harvesting the jobs in submission order
// under the send lock keeps the envelope-before-chunks frame order the
// bulk protocol requires. Caller holds the turn.
func (t *sendTurn[T]) flush(tr *transport, by time.Time) error {
	p := tr.codec
	pipelined := false
	if p != nil {
		t.jobs, t.n = t.jobs[:0], t.n[:0]
		if p.enter() {
			pipelined = true
			for _, it := range t.batch {
				k := 0
				if _, _, bulk := it.frame(); len(bulk) > codecInlineMax {
					before := len(t.jobs)
					t.jobs = p.submitSealChunks(t.jobs, bulk, 0)
					k = len(t.jobs) - before
				}
				t.n = append(t.n, k)
			}
		}
	}
	tr.lockSend()
	var err error
	ji := 0
	for i, it := range t.batch {
		typ, streamID, bulk := it.frame()
		if typ == 0 {
			continue // submitted no jobs either
		}
		if err == nil {
			err = tr.appendLocked(typ, streamID, t.envs[i])
		}
		if typ != wire.FrameBulkRequest && typ != wire.FrameBulkResponse {
			continue
		}
		// The payload chunks follow the envelope on the same stream, all in
		// this batch's single vectored write. Bulk-unary chunks are exempt
		// from stream credit: the call's other direction bounds them.
		k := 0
		if pipelined {
			k = t.n[i]
		}
		if k > 0 {
			// Jobs must be harvested even after an error so their buffers
			// return to the pool.
			if herr := tr.appendSealedLocked(streamID, t.jobs[ji:ji+k], err != nil); err == nil {
				err = herr
			}
			ji += k
		} else if err == nil {
			err = tr.appendChunkedLocked(streamID, bulk, 0)
		}
	}
	if err == nil {
		err = tr.flushLocked(by)
	}
	tr.unlockSend()
	if pipelined {
		p.exit()
	}
	return err
}

// appendLocked seals payload directly into the write buffer as one frame,
// without flushing. Caller must hold the send lock.
func (t *transport) appendLocked(frameType byte, streamID uint64, payload []byte) error {
	buf, err := t.writer.BeginFrame(frameType, streamID, len(payload)+secure.Overhead)
	if err != nil {
		return err
	}
	buf = t.sendKey.SealAppend(buf, payload)
	return t.writer.EndFrame(buf)
}

// appendChunkLocked seals one bulk-lane chunk and queues it by reference:
// flags travel in the clear as the first payload byte, authenticated as
// AAD; data is ciphered straight from the caller's buffer into a pooled
// buffer that the writer returns to the pool after its flush. Caller must
// hold the send lock and must not modify data until flushLocked returns.
func (t *transport) appendChunkLocked(streamID uint64, flags byte, data []byte) error {
	buf := wire.GetBuf(1 + len(data) + secure.Overhead)
	buf = append(buf, flags)
	t.aad[0] = flags
	buf = t.sendKey.SealAppendAAD(buf, data, t.aad[:])
	if err := t.writer.AppendFrameVec(wire.FrameStreamChunk, streamID, buf); err != nil {
		wire.PutBuf(buf)
		return err
	}
	return nil
}

// nextChunk splits the next bulk chunk off data — the one chunk splitter of
// the bulk lane. The chunk that exhausts data carries chunkEndMsg|endFlags;
// empty data still yields that one (empty) chunk, so the message boundary
// reaches the peer.
func nextChunk(data []byte, endFlags byte) (chunk, rest []byte, flags byte) {
	n := min(len(data), bulkChunkSize)
	if n == len(data) {
		flags = chunkEndMsg | endFlags
	}
	return data[:n], data[n:], flags
}

// appendChunkedLocked queues data as bulk chunks, the last one marked with
// endFlags. Caller must hold the send lock.
func (t *transport) appendChunkedLocked(streamID uint64, data []byte, endFlags byte) error {
	for {
		chunk, rest, flags := nextChunk(data, endFlags)
		if err := t.appendChunkLocked(streamID, flags, chunk); err != nil {
			return err
		}
		if flags != 0 {
			return nil
		}
		data = rest
	}
}

// startCodec attaches a codec worker pool of the given size (0 leaves
// the transport fully inline). Call before the connection's loops start.
func (t *transport) startCodec(workers int, obs Observer) {
	if workers > 0 {
		t.codec = newCodecPool(workers, t.sendKey, t.recvKey, obs)
	}
}

// stopCodec shuts the worker pool down, waiting for in-flight cycles.
// Nil-safe and idempotent; call after the connection's loops have exited
// (or at least after the conn is closed, so the loops are unwinding).
func (t *transport) stopCodec() {
	if t.codec != nil {
		t.codec.close()
	}
}

// appendSealedLocked harvests seal jobs in submission order and queues
// each sealed chunk by reference — the in-order completion point of the
// pipelined send path. The actual sealing ran (or still runs) on the
// codec workers; harvesting in order under the send lock makes the wire
// byte-identical to the inline path. Every job is always harvested and
// recycled, even after an error or with discard set (the caller's error
// path); undelivered buffers go back to the pool here.
func (t *transport) appendSealedLocked(streamID uint64, jobs []*codecJob, discard bool) error {
	var err error
	for _, j := range jobs {
		<-j.done
		out := j.out
		j.out = nil
		t.codec.putJob(j)
		if discard || err != nil {
			wire.PutBuf(out)
			continue
		}
		if aerr := t.writer.AppendFrameVec(wire.FrameStreamChunk, streamID, out); aerr != nil {
			wire.PutBuf(out)
			err = aerr
		}
	}
	return err
}

// flushLocked writes every appended frame with a single (possibly
// vectored) write. Caller must hold the send lock: sendMu exists to
// serialize frame writes on the shared conn, and holding it across the
// flush is the point.
//
// A non-zero by is a write deadline, for a caller that writes on its own
// goroutine and must not stay parked past its call's deadline; the next
// flush disarms it. If it passes before the first byte leaves, the frames
// are dropped, the stream is intact and the error is errWriteExpired; any
// other error may have torn the stream and the caller must fail the conn.
func (t *transport) flushLocked(by time.Time) error {
	if t.writeBy || !by.IsZero() {
		t.writeBy = !by.IsZero()
		_ = t.conn.SetWriteDeadline(by) // a conn without deadlines writes unguarded, as the loops do
	}
	err := t.writer.Flush()
	if err != nil && !t.writer.Torn() && errors.Is(err, os.ErrDeadlineExceeded) {
		return errWriteExpired
	}
	return err
}

var errWriteExpired = fmt.Errorf("stubby: write not started: %w", os.ErrDeadlineExceeded)

// flushUnlock ends a one-shot send begun with lockSend: it flushes what
// was appended, unless appending failed (err), and releases the send lock.
func (t *transport) flushUnlock(err error) error {
	if err == nil {
		err = t.flushLocked(time.Time{})
	}
	t.unlockSend()
	return err
}

// send encrypts payload and writes one frame with a single Write. Safe
// for concurrent use.
func (t *transport) send(frameType byte, streamID uint64, payload []byte) error {
	t.lockSend()
	return t.flushUnlock(t.appendLocked(frameType, streamID, payload))
}

// sendChunks seals data as one stream message (one or more chunk frames,
// the last carrying chunkEndMsg|endFlags) and flushes with one vectored
// write. Safe for concurrent use. With a codec pool attached, large
// messages are sealed concurrently by the workers while this goroutine
// takes the send lock; harvest order preserves chunk order.
func (t *transport) sendChunks(streamID uint64, data []byte, endFlags byte) error {
	if p := t.codec; p != nil && len(data) > codecInlineMax && p.enter() {
		var arr [8]*codecJob
		jobs := p.submitSealChunks(arr[:0], data, endFlags)
		t.lockSend()
		err := t.flushUnlock(t.appendSealedLocked(streamID, jobs, false))
		p.exit()
		return err
	}
	t.lockSend()
	return t.flushUnlock(t.appendChunkedLocked(streamID, data, endFlags))
}

// sendHalfClose emits the bare end-of-direction marker (no message).
func (t *transport) sendHalfClose(streamID uint64) error {
	t.lockSend()
	return t.flushUnlock(t.appendChunkLocked(streamID, chunkEndStream, nil))
}

// sendReset aborts a stream in both directions: the payload is the sealed
// error code followed by the message text.
func (t *transport) sendReset(streamID uint64, st *Status) error {
	buf := wire.GetBuf(len(st.Message) + 16)
	buf = wire.AppendUvarint(buf, uint64(st.Code))
	buf = append(buf, st.Message...)
	err := t.send(wire.FrameReset, streamID, buf)
	wire.PutBuf(buf)
	return err
}

// recvMsg is one decoded inbound frame: the frame metadata plus the
// decrypted payload in a pooled buffer whose ownership transfers to the
// caller (release with wire.PutBuf; see DESIGN.md §11). For chunk frames,
// flags holds the authenticated clear-text flags byte.
type recvMsg struct {
	typ      byte
	streamID uint64
	flags    byte
	//rpclint:owns decrypted payload; the recv caller releases it with
	// wire.PutBuf or hands it onward (DESIGN.md §11).
	plain []byte
}

// recvItem is one inbound frame handed from the pump to the dispatcher:
// either already decrypted (job == nil, msg.plain set) or pending on the
// codec workers (msg carries the frame metadata; harvest the plaintext
// with finishOpen).
type recvItem struct {
	msg recvMsg
	job *codecJob
}

// recvPipelineDepth bounds how far the receive pump reads ahead of the
// dispatching loop, and with it the sealed-copy memory pinned in flight.
const recvPipelineDepth = 16

// recvLoop is the connection's one receive loop — the pump. It reads
// frames on the calling goroutine and passes each to dispatch, which takes
// ownership of m.plain and is never run concurrently with itself, until
// the connection fails or dispatch returns false (ErrUnavailable), and
// returns the error that ended it.
//
// Without a codec pool the pump opens and dispatches everything. With one,
// large frames are copied out and submitted to the workers so decryption
// overlaps the read-ahead, and a dispatcher goroutine harvests them in
// arrival order. A frame the pump opened inline it still dispatches itself
// when nothing it handed to the dispatcher is undelivered: handedOff drops
// only after dispatch has returned, so frame order and the single-threaded
// ownership of dispatch's state both hold.
func (t *transport) recvLoop(dispatch func(recvMsg) bool) (err error) {
	p := t.codec
	var items chan recvItem
	if p != nil {
		if !p.enter() {
			return ErrUnavailable // pool already closing: connection is going down
		}
		defer p.exit()
		items = make(chan recvItem, recvPipelineDepth)
		done := make(chan error)
		go func() { done <- t.dispatchItems(items, dispatch) }()
		// Runs before p.exit: every job is harvested inside the cycle.
		defer func() {
			close(items)
			if derr := <-done; derr != nil {
				err = derr // the read error was only the close that forced the pump out
			}
		}()
	}
	for {
		m, j, rerr := t.recvStep(p)
		if rerr != nil {
			return rerr
		}
		if j == nil && t.handedOff.Load() == 0 {
			if !dispatch(m) {
				return ErrUnavailable
			}
			continue
		}
		t.handedOff.Add(1)
		items <- recvItem{msg: m, job: j}
	}
}

// dispatchItems is the dispatcher goroutine of a pipelined recvLoop. After
// an open error (which it returns) or a dispatch stop it closes the conn —
// the pump only exits on a read error — and keeps harvesting what the pump
// still emits, so the pump never wedges and no pooled buffer is lost.
func (t *transport) dispatchItems(items <-chan recvItem, dispatch func(recvMsg) bool) (err error) {
	stopped := false
	for it := range items {
		m := it.msg
		var oerr error
		if it.job != nil {
			m.plain, oerr = t.finishOpen(it.job)
		}
		switch {
		case stopped:
			wire.PutBuf(m.plain)
		case oerr != nil || !dispatch(m):
			// handedOff stays non-zero from here on, so the pump
			// dispatches nothing past the stop.
			stopped, err = true, oerr
			t.close()
		default:
			t.handedOff.Add(-1)
		}
	}
	return err
}

// recvStep reads and routes one frame under recvMu for the pump: opened
// inline, or — large, and with a pool — submitted to the codec workers.
func (t *transport) recvStep(p *codecPool) (recvMsg, *codecJob, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if sanitize.Enabled {
		sanitize.LockAcquired(sanitize.RankTransportRecv, "stubby.transport.recvMu")
		defer sanitize.LockReleased(sanitize.RankTransportRecv)
	}
	//rpclint:ignore lockheld recvMu serializes reads of the shared frame reader; holding it across the read is the point
	f, err := t.reader.ReadFrame()
	if err != nil {
		return recvMsg{}, nil, err
	}
	m := recvMsg{typ: f.Type, streamID: f.StreamID}
	sealed := f.Payload
	var aad []byte
	if f.Type == wire.FrameStreamChunk {
		if len(sealed) < 1 {
			return recvMsg{}, nil, secure.ErrDecrypt
		}
		m.flags = sealed[0]
		aad, sealed = f.Payload[:1], sealed[1:]
	}
	if p != nil && len(sealed) > codecInlineMax {
		// ReadFrame's payload is only valid until the next read: copy the
		// sealed bytes into a pooled buffer the job owns, and let a codec
		// worker decrypt while this loop reads ahead.
		j := p.getJob()
		j.op = codecOpen
		j.typ = m.typ
		j.flags = m.flags
		j.in = append(wire.GetBuf(len(sealed)), sealed...)
		p.submit(j)
		return m, j, nil
	}
	buf := wire.GetBuf(len(sealed))
	plain, err := t.recvKey.OpenAppendAAD(buf, sealed, aad)
	if err != nil {
		wire.PutBuf(buf)
		return recvMsg{}, nil, err
	}
	m.plain = plain
	return m, nil, nil
}

// finishOpen harvests an open job: the decrypted payload (ownership
// transfers to the caller) or the decrypt error.
func (t *transport) finishOpen(j *codecJob) ([]byte, error) {
	<-j.done
	out, err := j.out, j.err
	j.out = nil
	t.codec.putJob(j)
	return out, err
}

// close tears down the underlying connection.
func (t *transport) close() error { return t.conn.Close() }
