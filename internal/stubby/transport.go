package stubby

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
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

	sendMu  sync.Mutex
	sendKey *secure.Session
	writer  *wire.Writer
	// aad is scratch for the chunk flags byte sealed as additional
	// authenticated data; sendMu serializes access.
	aad [1]byte
	// writeBy records that the conn has a write deadline armed (see
	// flushLocked); sendMu serializes access.
	writeBy bool

	// The receive side has one goroutine, conn.recvLoop's.
	recvKey *secure.Session
	reader  *wire.Reader
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
	envs  [][]byte // pooled envelopes, parallel to batch
	size  int      // bytes the batch will put on the wire so far
}

// directSendMax is the largest payload a goroutine sends itself, holding
// the turn of an idle connection, instead of handing it to the drain loop
// (DESIGN.md §16, "Idle-path direct dispatch"). Past it a worker or caller
// would spend its own time sealing bytes while the next call waits for it;
// the drain loop does that.
const directSendMax = 4 << 10

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
// them with a single write (by: write deadline, zero for none). A bulk
// envelope's payload chunks follow it on the same stream, sealed straight
// from the item's buffer, all in this one vectored write. Caller holds the
// turn.
func (t *sendTurn[T]) flush(tr *transport, by time.Time) error {
	tr.lockSend()
	var err error
	for i, it := range t.batch {
		typ, streamID, bulk := it.frame()
		if typ == 0 {
			continue
		}
		if err = tr.appendLocked(typ, streamID, t.envs[i]); err != nil {
			break
		}
		// Bulk-unary chunks are exempt from stream credit: the call's other
		// direction bounds them.
		if typ == wire.FrameBulkRequest || typ == wire.FrameBulkResponse {
			if err = tr.appendChunkedLocked(streamID, bulk, 0); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = tr.flushLocked(by)
	}
	tr.unlockSend()
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

// appendChunkedLocked queues data as bulk chunks of up to bulkChunkSize,
// the last one marked chunkEndMsg|endFlags; empty data still yields that
// one (empty) chunk, so the message boundary reaches the peer. Caller must
// hold the send lock.
func (t *transport) appendChunkedLocked(streamID uint64, data []byte, endFlags byte) error {
	for {
		n := min(len(data), bulkChunkSize)
		var flags byte
		if n == len(data) {
			flags = chunkEndMsg | endFlags
		}
		if err := t.appendChunkLocked(streamID, flags, data[:n]); err != nil {
			return err
		}
		if flags != 0 {
			return nil
		}
		data = data[n:]
	}
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
// write. Safe for concurrent use.
func (t *transport) sendChunks(streamID uint64, data []byte, endFlags byte) error {
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

// recv reads one frame and opens it into a pooled buffer. Only the
// connection's receive loop (conn.recvLoop) reads, so the reader and
// recvKey need no lock.
func (t *transport) recv() (recvMsg, error) {
	f, err := t.reader.ReadFrame()
	if err != nil {
		return recvMsg{}, err
	}
	m := recvMsg{typ: f.Type, streamID: f.StreamID}
	sealed := f.Payload
	var aad []byte
	if f.Type == wire.FrameStreamChunk {
		if len(sealed) < 1 {
			return recvMsg{}, secure.ErrDecrypt
		}
		m.flags = sealed[0]
		aad, sealed = f.Payload[:1], sealed[1:]
	}
	buf := wire.GetBuf(len(sealed))
	plain, err := t.recvKey.OpenAppendAAD(buf, sealed, aad)
	if err != nil {
		wire.PutBuf(buf)
		return recvMsg{}, err
	}
	m.plain = plain
	return m, nil
}

// close tears down the underlying connection.
func (t *transport) close() error { return t.conn.Close() }
