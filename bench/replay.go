package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"rpcscale/internal/compressor"
	"rpcscale/internal/secure"
	"rpcscale/internal/wire"
)

// replayer walks one goroutine through every layer's public functions in the
// order the data plane calls them, over a real loopback TCP connection, and
// records one span per call into a layer. It has none of the stack's
// goroutine hand-offs, queues, envelopes or dispatch, so the median of its
// replay_call span is the part of a call's latency that the layers below
// stubby explain; the rest is stubby's own.
type replayer struct {
	rec *recorder

	client, server net.Conn
	link           [2]*halfLink // 0: client to server, 1: server to client
	comp           *compressor.Compressor
	compress       bool
	threshold      int

	last       int64 // end of the previous span, start of the next
	call, root int32
	sealed     int64 // plaintext bytes sealed (and opened)
	compressed int64 // plaintext bytes compressed (and decompressed)
}

// halfLink is one direction of the connection: the sender's writer and
// sealing state, the receiver's reader and opening state.
type halfLink struct {
	w      *wire.Writer
	r      *wire.Reader
	seal   *secure.Session
	worker *secure.Worker
	open   *secure.Session
}

func newReplayer(algo compressor.Algorithm, threshold int) (*replayer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, err
	}
	server, err := l.Accept()
	if err != nil {
		client.Close()
		return nil, err
	}
	rp := &replayer{
		rec:       newRecorder(replayMaxCalls * 24),
		client:    client,
		server:    server,
		comp:      compressor.New(algo, nil),
		compress:  algo != compressor.None,
		threshold: threshold,
	}
	// One goroutine writes a frame and then reads it on the other end, so
	// the socket buffers must hold a whole bulk chunk.
	for _, c := range []net.Conn{client, server} {
		tc := c.(*net.TCPConn)
		if err := tc.SetWriteBuffer(4 * bulkChunk); err != nil {
			rp.close()
			return nil, err
		}
		if err := tc.SetReadBuffer(4 * bulkChunk); err != nil {
			rp.close()
			return nil, err
		}
	}
	ends := [2][2]net.Conn{{client, server}, {server, client}}
	for i, dir := range []string{"c2s", "s2c"} {
		key := secure.DeriveKey([]byte("rpcscale-bench-replay"), dir)
		seal, err := secure.NewSession(key, nil)
		if err != nil {
			rp.close()
			return nil, err
		}
		open, err := secure.NewSession(key, nil)
		if err != nil {
			rp.close()
			return nil, err
		}
		h := &halfLink{w: wire.NewWriter(ends[i][0]), r: wire.NewReader(ends[i][1]), seal: seal, worker: seal.NewWorker(), open: open}
		// As in the transport: chunk buffers queued by reference go back
		// to the pool once the flush has written them.
		h.w.SetFlushHook(func(segs [][]byte) {
			for _, s := range segs {
				wire.PutBuf(s)
			}
		})
		rp.link[i] = h
	}
	return rp, nil
}

func (rp *replayer) close() {
	rp.client.Close()
	rp.server.Close()
}

// lap closes a span that began where the previous one ended, so each span
// costs one clock read.
func (rp *replayer) lap(name string) {
	now := rp.rec.now()
	rp.rec.add(name, rp.call, rp.root, rp.last, now)
	rp.last = now
}

// run replays ops until the budget or replayMaxCalls is spent. A hung socket
// fails the deadline instead of hanging the run.
func (rp *replayer) run(ops []op, budget time.Duration) error {
	deadline := time.Now().Add(budget + 30*time.Second)
	if err := rp.client.SetDeadline(deadline); err != nil {
		return err
	}
	if err := rp.server.SetDeadline(deadline); err != nil {
		return err
	}
	for start, i := time.Now(), 0; i < replayMaxCalls && (i < 100 || time.Since(start) < budget); i++ {
		o := &ops[i%len(ops)]
		rp.call = int32(i)
		rp.root = rp.rec.begin("replay_call", rp.call, -1)
		rp.last = rp.rec.spans[rp.root].Start
		for dir, payload := range [][]byte{o.req, o.want} {
			if err := rp.leg(rp.link[dir], payload, i%fullCheckEvery == 0); err != nil {
				return fmt.Errorf("call %d: %w", i, err)
			}
		}
		rp.rec.end(rp.root)
	}
	return nil
}

// leg carries payload across one direction. With verify set it compares what
// arrived with what was sent; the length is compared on every leg.
func (rp *replayer) leg(h *halfLink, payload []byte, verify bool) error {
	var got []byte
	var err error
	bulk := len(payload) >= bulkThreshold
	if bulk {
		got, err = rp.bulkLeg(h, payload)
	} else {
		got, err = rp.envelopeLeg(h, payload)
	}
	if err != nil {
		return err
	}
	if len(got) != len(payload) || verify && !bytes.Equal(got, payload) {
		return errBadReply
	}
	if bulk {
		// The assembled buffer is handed over as it is; the caller frees it.
		wire.PutBuf(got)
		rp.lap("wire.PutBuf")
	}
	return nil
}

// envelopeLeg is the inline path: marshal into a pooled buffer, compress,
// seal straight into the writer's batch buffer, flush; then read, open into
// a pooled buffer, decompress, copy out.
func (rp *replayer) envelopeLeg(h *halfLink, payload []byte) ([]byte, error) {
	msg := wire.GetBuf(len(payload))
	rp.lap("wire.GetBuf")
	msg = append(msg, payload...)
	body, packed := msg, false
	if rp.compress && len(payload) >= rp.threshold {
		c, err := rp.comp.Compress(msg)
		if err != nil {
			return nil, err
		}
		rp.compressed += int64(len(payload))
		rp.lap("compressor.Compress")
		body, packed = c, true
	}
	buf, err := h.w.BeginFrame(wire.FrameRequest, uint64(rp.call), len(body)+secure.Overhead)
	if err != nil {
		return nil, err
	}
	rp.lap("wire.BeginFrame")
	buf = h.seal.SealAppend(buf, body)
	rp.sealed += int64(len(body))
	rp.lap("secure.Seal")
	if err := h.w.EndFrame(buf); err != nil {
		return nil, err
	}
	rp.lap("wire.EndFrame")
	wire.PutBuf(msg)
	rp.lap("wire.PutBuf")
	if err := h.w.Flush(); err != nil {
		return nil, err
	}
	rp.lap("wire.Flush")

	f, err := h.r.ReadFrame()
	if err != nil {
		return nil, err
	}
	rp.lap("wire.ReadFrame")
	in := wire.GetBuf(len(f.Payload))
	rp.lap("wire.GetBuf")
	plain, err := h.open.OpenAppend(in, f.Payload)
	if err != nil {
		return nil, err
	}
	rp.lap("secure.Open")
	var out []byte
	if packed {
		if out, err = rp.comp.Decompress(plain); err != nil {
			return nil, err
		}
		rp.lap("compressor.Decompress")
	} else {
		out = append([]byte(nil), plain...)
	}
	wire.PutBuf(plain)
	rp.lap("wire.PutBuf")
	return out, nil
}

// bulkLeg is the bulk lane: the payload travels uncompressed in chunk frames,
// each sealed into its own pooled buffer with its flags byte as additional
// data and queued by reference; the receiver opens each chunk into a pooled
// buffer and assembles the message. Unlike the stack, which flushes a whole
// message with one vectored write, the replay flushes chunk by chunk: one
// goroutine plays both ends, and a chunk is what the socket buffers hold.
func (rp *replayer) bulkLeg(h *halfLink, payload []byte) ([]byte, error) {
	assembled := wire.GetBuf(len(payload))
	rp.lap("wire.GetBuf")
	for off := 0; off < len(payload); off += bulkChunk {
		chunk := payload[off:min(off+bulkChunk, len(payload))]
		flags := []byte{0}
		buf := wire.GetBuf(1 + len(chunk) + secure.Overhead)
		rp.lap("wire.GetBuf")
		buf = h.worker.SealAppendAAD(append(buf, flags[0]), chunk, flags)
		rp.sealed += int64(len(chunk))
		rp.lap("secure.Seal")
		if err := h.w.AppendFrameVec(wire.FrameStreamChunk, uint64(rp.call), buf); err != nil {
			wire.PutBuf(buf)
			return nil, err
		}
		rp.lap("wire.AppendFrameVec")
		if err := h.w.Flush(); err != nil { // the flush hook recycles buf
			return nil, err
		}
		rp.lap("wire.Flush")

		f, err := h.r.ReadFrame()
		if err != nil {
			return nil, err
		}
		rp.lap("wire.ReadFrame")
		if len(f.Payload) < 1 {
			return nil, secure.ErrDecrypt
		}
		in := wire.GetBuf(len(f.Payload))
		rp.lap("wire.GetBuf")
		plain, err := h.open.OpenAppendAAD(in, f.Payload[1:], f.Payload[:1])
		if err != nil {
			return nil, err
		}
		rp.lap("secure.Open")
		assembled = append(assembled, plain...)
		wire.PutBuf(plain)
		rp.lap("wire.PutBuf")
	}
	return assembled, nil
}
