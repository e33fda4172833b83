package stubby

import (
	"errors"
	"net"
	"sync"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/trace"
	"rpcscale/internal/wire"
)

// conn is the connection core both ends instantiate (DESIGN.md §16): the
// transport, the compress-or-not decision, the send queue with its turn and
// one batching drain loop, the one receive loop, the stream table, and the
// inbound half of the bulk lane. A Channel adds the pending-call table,
// a serverConn the cancel table and the count of responses owed;
// everything else about moving frames over one socket lives here, once.
// T is the queued item: *clientCall or *serverResponse.
type conn[T outbound] struct {
	tr *transport

	// The compress-or-not decision (compress). Whoever holds the turn owns
	// zbuf, where the compressed form sits until the envelope has copied it.
	comp        *compressor.Compressor
	compressMin int
	zbuf        []byte

	sendQ chan T
	turn  sendTurn[T]

	streams streamTable

	// bulkIn holds the inbound bulk-lane transfers being assembled. Only
	// recvLoop's dispatch touches it, so assembly takes no lock.
	bulkIn map[uint64]*bulkAsm

	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error // what closing the socket returned; read after shutdown

	loops sync.WaitGroup // the connection's send and receive loops
}

// init builds the connection over nc: transport and session keys (dirSend
// and dirRecv label the key derivation and must be mirrored on the peer)
// and send queue. On failure nc is closed.
func (c *conn[T]) init(nc net.Conn, o *Options, comp *compressor.Compressor, dirSend, dirRecv string) error {
	tr, err := newTransport(nc, o.Secret, dirSend, dirRecv, o.EncryptionStats)
	if err != nil {
		nc.Close()
		return Errorf(trace.Internal, "transport setup: %v", err)
	}
	c.tr = tr
	c.comp, c.compressMin = comp, o.CompressThreshold
	c.sendQ = make(chan T, queueLen)
	c.bulkIn = make(map[uint64]*bulkAsm)
	c.closed = make(chan struct{})
	return nil
}

// run starts the connection's two loops, counted in loops: sendLoop over
// the end's prepare and flush, and the end's receive loop, recv.
func (c *conn[T]) run(prepare func(T), flush func(), recv func()) {
	c.loops.Add(2)
	go func() {
		defer c.loops.Done()
		c.sendLoop(prepare, flush)
	}()
	go func() {
		defer c.loops.Done()
		recv()
	}()
}

// shutdown marks the connection closed and closes its socket, which
// unwinds both loops. Idempotent.
func (c *conn[T]) shutdown() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.closeErr = c.tr.close()
	})
}

// compress returns what an envelope should carry for payload: the
// compressed form and true when compression is configured, the payload is
// large enough and the result is smaller (the encoder gives up by itself
// once it cannot shrink its input); otherwise payload itself. The
// compressed form lives in the connection's scratch buffer: it is good
// until the next compress, so the caller marshals it into its envelope
// before it prepares another item. Caller holds the turn.
func (c *conn[T]) compress(payload []byte) ([]byte, bool) {
	if c.comp.Algorithm() == compressor.None || len(payload) < c.compressMin {
		return payload, false
	}
	out, ok := c.comp.CompressAppend(c.zbuf[:0], payload)
	if cap(out) <= zbufKeep {
		c.zbuf = out
	}
	if !ok {
		return payload, false
	}
	return out, true
}

// zbufKeep is the largest scratch buffer a connection holds on to between
// compressions: past the bulk threshold, which is as large as an inline
// payload gets.
const zbufKeep = 2 * bulkThreshold

// sendBatchBytes bounds how many marshalled bytes one pass of the drain
// loop accumulates before flushing, in the style of gRPC's loopyWriter:
// after blocking on the first queued item, further pending items are
// drained non-blockingly and the whole batch leaves in one write,
// amortizing the syscall across concurrent senders.
const sendBatchBytes = 128 << 10

// sendLoop is the connection's batching drain: it holds the turn from
// dequeue to flush, running the end's prepare (compress, marshal, append to
// the turn's batch) on every item it drains and then the end's flush,
// which sends the batch and releases the turn. It exits when the
// connection closes, releasing what is still queued.
func (c *conn[T]) sendLoop(prepare func(T), flush func()) {
	for {
		select {
		case it := <-c.sendQ:
			c.turn.lock()
			prepare(it)
		drain:
			for c.turn.size < sendBatchBytes {
				select {
				case next := <-c.sendQ:
					prepare(next)
				default:
					break drain
				}
			}
			flush()
		case <-c.closed:
			c.drainQueue()
			return
		}
	}
}

// drainQueue releases every queued item. It runs once the connection has
// closed: by the drain loop on its way out, and by a sender that queued an
// item and then found the connection closed — the loop may have taken its
// last look already.
func (c *conn[T]) drainQueue() {
	for {
		select {
		case it := <-c.sendQ:
			it.release()
		default:
			return
		}
	}
}

// recvLoop is the connection's one receive loop: it reads and opens each
// frame and passes it to dispatch, which takes ownership of m.plain, until
// the connection fails or dispatch returns false (errUnavailable). Then it
// releases the bulk transfers left half-assembled and returns the error
// that ended it. Arrival order is dispatch order, and dispatch's state has
// one goroutine.
func (c *conn[T]) recvLoop(dispatch func(recvMsg) bool) error {
	defer func() {
		for id := range c.bulkIn {
			c.dropBulk(id)
		}
	}()
	for {
		m, err := c.tr.recv()
		if err != nil {
			return err
		}
		if !dispatch(m) {
			return errUnavailable
		}
	}
}

// maxBulkHint caps the assembly buffer a declared bulk size reserves
// before the chunks arrive: a size is only a peer's word, so past a few
// chunks the buffer grows by append as bytes back it.
const maxBulkHint = 16 * bulkChunkSize

// bulkAsm is one inbound bulk-lane transfer: the envelope that announced
// it and the payload collected from the chunk frames that follow on the
// same stream ID.
type bulkAsm struct {
	// The announcing envelope. The server keeps it as received for a
	// worker to decode (env, pooled; at is its arrival time); the client
	// decodes it on arrival into resp.
	//rpclint:owns released by release, or handed to a serverCall
	env  []byte
	at   time.Time
	resp response
	// hint is the payload size the envelope declared, capped at
	// maxBulkHint; 0 when not known before the chunks arrive.
	hint int
	//rpclint:owns pooled payload assembly; released by release, or handed
	// on by whoever chunk returned the finished transfer to
	data []byte
}

func (b *bulkAsm) release() {
	wire.PutBuf(b.env)
	wire.PutBuf(b.data)
	b.env, b.data = nil, nil
}

// errBulkTooLarge ends a bulk transfer whose chunks add up to more than
// wire.MaxFrameSize, the cap a well-behaved sender applies before sending.
var errBulkTooLarge = errors.New("stubby: bulk transfer exceeds maximum size")

// beginBulk registers the transfer announced on id; its chunks follow.
func (c *conn[T]) beginBulk(id uint64, b *bulkAsm) {
	c.dropBulk(id) // a peer reusing a live ID forfeits the earlier transfer
	c.bulkIn[id] = b
}

// dropBulk abandons the transfer on id, if any: reset, cancelled, or the
// connection is going down.
func (c *conn[T]) dropBulk(id uint64) {
	if b := c.bulkIn[id]; b != nil {
		delete(c.bulkIn, id)
		b.release()
	}
}

// chunk routes one inbound chunk frame, taking ownership of m.plain: into
// the bulk transfer announced on its ID, or to its stream. It returns the
// transfer when this chunk finished it — complete, with the payload in
// data, or with errBulkTooLarge and its buffers released (the chunks still
// to come find nothing and are dropped) — and nil otherwise. The one size
// rule of both ends: neither what the envelope declared nor what the chunks
// add up to gets more than wire.MaxFrameSize of memory.
func (c *conn[T]) chunk(m recvMsg) (*bulkAsm, error) {
	b := c.bulkIn[m.streamID]
	if b == nil {
		if st := c.streams.lookup(m.streamID); st != nil {
			st.deliverChunk(m.flags, m.plain)
		} else {
			wire.PutBuf(m.plain) // reset, cancelled or cut off mid-transfer
		}
		return nil, nil
	}
	end := m.flags&chunkEndMsg != 0
	switch {
	case len(b.data)+len(m.plain) > wire.MaxFrameSize:
		wire.PutBuf(m.plain)
		c.dropBulk(m.streamID)
		return b, errBulkTooLarge
	case b.data == nil && end:
		b.data = m.plain // single chunk: zero-copy hand-off
	default:
		if b.data == nil {
			b.data = wire.GetBuf(max(b.hint, 2*len(m.plain)))
		}
		b.data = append(b.data, m.plain...)
		wire.PutBuf(m.plain)
	}
	if !end {
		return nil, nil
	}
	delete(c.bulkIn, m.streamID)
	return b, nil
}

// control handles the frames both ends treat alike — a stream's window
// update, a reset — and drops any other, taking ownership of m.plain.
func (c *conn[T]) control(m recvMsg) {
	switch m.typ {
	case wire.FrameWindowUpdate:
		if st := c.streams.lookup(m.streamID); st != nil {
			st.grantFromPeer(m.plain)
		}
	case wire.FrameReset:
		c.dropBulk(m.streamID)
		if st := c.streams.lookup(m.streamID); st != nil {
			// Terminating cancels a handler's context promptly and fails
			// its blocked Sends — the peer walked away.
			st.resetFromPeer(m.plain)
		}
	}
	wire.PutBuf(m.plain)
}

// streamTable is a connection's live streams by ID. Once failAll has run
// it takes no more.
type streamTable struct {
	mu   sync.Mutex
	m    map[uint64]*Stream
	dead bool
}

// add registers st; false means the connection has already failed.
func (t *streamTable) add(id uint64, st *Stream) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return false
	}
	if t.m == nil {
		t.m = make(map[uint64]*Stream)
	}
	t.m[id] = st
	return true
}

func (t *streamTable) lookup(id uint64) *Stream {
	t.mu.Lock()
	st := t.m[id]
	t.mu.Unlock()
	return st
}

func (t *streamTable) drop(id uint64) {
	t.mu.Lock()
	delete(t.m, id)
	t.mu.Unlock()
}

// failAll terminates every live stream: the connection is gone.
func (t *streamTable) failAll() {
	t.mu.Lock()
	streams := t.m
	t.m, t.dead = nil, true
	t.mu.Unlock()
	for _, st := range streams {
		st.terminate(errUnavailable, false)
	}
}
