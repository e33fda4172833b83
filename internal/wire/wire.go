// Package wire implements the low-level wire format of the Stubby-like RPC
// stack: varint primitives and length-prefixed frame framing over a byte
// stream. It is the layer the paper's "RPC Processing and Network Stack"
// component spends its serialization cycles in, and the cycle-accounting
// hooks in codec and stubby charge their work against it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Frame type tags carried in the frame header. The RPC stack multiplexes
// requests, responses, and cancellations over one connection; the bulk
// lane adds stream-open, chunk, and flow-control frames so many concurrent
// streams share the connection without head-of-line blocking at the
// framing layer. Tags 0x04 and 0x05 are retired: a reader still accepts
// them, and the RPC stack drops them unread.
const (
	FrameRequest  = 0x01
	FrameResponse = 0x02
	FrameCancel   = 0x03
	FrameGoAway   = 0x06

	// Bulk-lane frames (see DESIGN.md §12).

	// FrameStreamOpen opens a bidirectional stream; the payload is a
	// sealed request envelope carrying the method and the deadline. The
	// credit window is a protocol constant, not declared here.
	FrameStreamOpen = 0x07
	// FrameStreamChunk carries one chunk of stream or bulk payload. The
	// first payload byte is a clear-text flags byte (authenticated as
	// AAD); the rest is the sealed chunk data.
	FrameStreamChunk = 0x08
	// FrameWindowUpdate grants the peer additional send credit on one
	// stream: the payload is a sealed uvarint byte delta (the HTTP/2
	// WINDOW_UPDATE equivalent).
	FrameWindowUpdate = 0x09
	// FrameReset aborts one stream in both directions: the payload is a
	// sealed uvarint error code. Unlike FrameCancel it tears down stream
	// state (credit waiters, assembly buffers) promptly on both ends.
	FrameReset = 0x0A
	// FrameBulkRequest / FrameBulkResponse are unary envelopes whose
	// payload travels separately in FrameStreamChunk frames on the same
	// stream ID — the transparent bulk routing of large unary calls.
	FrameBulkRequest  = 0x0B
	FrameBulkResponse = 0x0C
)

// maxFrameType is the highest assigned frame type tag.
const maxFrameType = FrameBulkResponse

// MaxFrameSize bounds a single frame. The paper's P99 response is 563 KB
// with a heavy tail beyond; 64 MB comfortably covers the tail while still
// rejecting corrupt length prefixes.
const MaxFrameSize = 64 << 20

// ErrFrameTooLarge is returned when a frame header declares a payload
// larger than MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrBadFrameType is returned for an unknown frame type tag.
var ErrBadFrameType = errors.New("wire: unknown frame type")

var errVarintOverflow = errors.New("wire: varint overflows 64 bits")

// Frame is one unit of transmission: a type tag, a stream (call) ID used to
// multiplex concurrent RPCs over a connection, and an opaque payload. On
// the wire it is 1 byte type | uvarint stream id | uvarint length | payload.
type Frame struct {
	Type     byte
	StreamID uint64
	Payload  []byte
}

// readBufSize is the Reader's read-ahead window. 128 KB covers the vast
// majority of frames (the fleet's P99 request is ~18 KB, Fig. 6) so a
// steady stream of small frames costs one read syscall per window, not
// one per header byte — and a pipelined run of bulk-lane chunks (64 KB
// ciphertext each, DESIGN.md §12) drains at one or two chunks per
// syscall instead of paying a read per chunk.
const readBufSize = 128 << 10

// maxRetainedScratch clamps the payload scratch buffer a Reader keeps
// between frames. One oversized frame must not pin its buffer for the
// connection's lifetime; anything above the clamp is released after use.
const maxRetainedScratch = 1 << 20

// Reader decodes frames from a byte stream. It buffers ahead of the
// current frame — safe because the transport's reader goroutine owns the
// connection — so headers are decoded from memory instead of issuing
// 1-byte read syscalls.
//
// ReadFrame returns a *Frame that is only valid until the next call: the
// Reader reuses both the Frame struct and the payload storage.
type Reader struct {
	r   io.Reader
	buf []byte // read-ahead window; buf[pos:end] holds unread bytes
	pos int
	end int

	scratch []byte // payload assembly for frames larger than the window
	frame   Frame  // reused result
}

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, readBufSize)}
}

// fill refills the (empty) read-ahead window with one read.
func (fr *Reader) fill() error {
	fr.pos, fr.end = 0, 0
	for {
		n, err := fr.r.Read(fr.buf)
		if n > 0 {
			fr.end = n
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// readByte returns the next byte. atBoundary marks the first byte of a
// frame, where EOF is clean; everywhere else it is io.ErrUnexpectedEOF.
func (fr *Reader) readByte(atBoundary bool) (byte, error) {
	if fr.pos == fr.end {
		if err := fr.fill(); err != nil {
			if err == io.EOF && atBoundary {
				return 0, io.EOF
			}
			return 0, unexpectedEOF(err)
		}
	}
	b := fr.buf[fr.pos]
	fr.pos++
	return b, nil
}

// readUvarint decodes a uvarint from the buffered stream.
func (fr *Reader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := fr.readByte(false)
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errVarintOverflow
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, errVarintOverflow
}

// ReadFrame reads the next frame. The returned frame and its payload are
// only valid until the next call; callers that retain either must copy.
// io.EOF is returned cleanly at a frame boundary, io.ErrUnexpectedEOF
// mid-frame.
func (fr *Reader) ReadFrame() (*Frame, error) {
	if cap(fr.scratch) > maxRetainedScratch {
		fr.scratch = nil // release the oversized-frame buffer
	}
	t, err := fr.readByte(true)
	if err != nil {
		return nil, err
	}
	if t < FrameRequest || t > maxFrameType {
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadFrameType, t)
	}
	stream, err := fr.readUvarint()
	if err != nil {
		return nil, err
	}
	length, err := fr.readUvarint()
	if err != nil {
		return nil, err
	}
	if length > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	n := int(length)
	avail := fr.end - fr.pos
	var payload []byte
	if avail >= n {
		// Whole payload already buffered: return it in place, no copy.
		payload = fr.buf[fr.pos : fr.pos+n]
		fr.pos += n
	} else if n > readBufSize {
		if payload, err = fr.readLarge(n); err != nil {
			return nil, err
		}
	} else {
		if cap(fr.scratch) < n {
			fr.scratch = make([]byte, n)
		}
		payload = fr.scratch[:n]
		copy(payload, fr.buf[fr.pos:fr.end])
		fr.pos = fr.end
		if _, err := io.ReadFull(fr.r, payload[avail:]); err != nil {
			return nil, unexpectedEOF(err)
		}
	}
	fr.frame = Frame{Type: t, StreamID: stream, Payload: payload}
	return &fr.frame, nil
}

// readLarge assembles a payload longer than the read-ahead window in the
// scratch buffer, which grows only as the payload arrives: a full buffer
// is replaced by one twice its size (at least one window, at most n). A
// header that declares more than its peer sends thus costs in proportion
// to what was sent, not the declared length.
func (fr *Reader) readLarge(n int) ([]byte, error) {
	p := append(fr.scratch[:0], fr.buf[fr.pos:fr.end]...)
	fr.pos = fr.end
	for len(p) < n {
		if len(p) == cap(p) {
			p = append(make([]byte, 0, min(n, max(2*cap(p), readBufSize))), p...)
		}
		m, err := io.ReadFull(fr.r, p[len(p):min(n, cap(p))])
		p = p[:len(p)+m]
		if err != nil {
			return nil, unexpectedEOF(err)
		}
	}
	fr.scratch = p
	return p, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// maxRetainedWriteBuf clamps the batch buffer a Writer keeps across
// flushes, mirroring the Reader's scratch clamp.
const maxRetainedWriteBuf = 1 << 20

// Writer accumulates frames into one buffer and flushes them with a
// single Write: a frame costs one syscall instead of two (header +
// payload), and a batch of frames costs one syscall total. Not safe for
// concurrent use; the transport serializes access under its send lock.
//
// Frames whose payload already lives in its own buffer (sealed chunks
// from the bulk lane) can be queued by reference with AppendFrameVec:
// only the header lands in the batch buffer and Flush hands the kernel a
// scatter-gather list (net.Buffers → writev on TCP), so large payloads
// reach the wire without a coalescing copy.
type Writer struct {
	w   io.Writer
	buf []byte
	// want is the expected buffer length after an open BeginFrame/EndFrame
	// pair, used to verify the caller appended exactly the declared bytes.
	want int

	// segs holds by-reference payload segments queued by AppendFrameVec;
	// seg[i].pos is the batch-buffer offset the segment is spliced after.
	segs []vecSeg
	// vec is the reusable scatter-gather list handed to net.Buffers.
	vec net.Buffers
	// onFlush, when non-nil, runs after every Flush that wrote queued
	// segments, before the segment list is cleared. The transport uses it
	// to return pooled chunk buffers once the kernel has consumed them.
	onFlush func(segs [][]byte)
	// flushSegs is the reusable slice passed to onFlush.
	flushSegs [][]byte
	// torn records that the last Flush failed part-way (see Torn).
	torn bool
}

// vecSeg records one by-reference payload: the batch-buffer length at the
// time it was queued (the splice point) and the payload itself.
type vecSeg struct {
	pos     int
	payload []byte
}

// NewWriter returns a batching frame writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 4096)}
}

// BeginFrame appends a header for a frame whose payload is exactly
// payloadLen bytes and returns the batch buffer for the caller to append
// the payload onto — e.g. sealing ciphertext directly into place with no
// intermediate copy. The caller must append exactly payloadLen bytes and
// hand the extended slice back to EndFrame before any other Writer call.
func (fw *Writer) BeginFrame(frameType byte, streamID uint64, payloadLen int) ([]byte, error) {
	if payloadLen > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	fw.buf = append(fw.buf, frameType)
	fw.buf = binary.AppendUvarint(fw.buf, streamID)
	fw.buf = binary.AppendUvarint(fw.buf, uint64(payloadLen))
	fw.want = len(fw.buf) + payloadLen
	return fw.buf, nil
}

// EndFrame completes a BeginFrame with the slice the payload was appended
// onto (append may have moved it).
func (fw *Writer) EndFrame(buf []byte) error {
	if len(buf) != fw.want {
		return fmt.Errorf("wire: frame payload size mismatch: appended to %d bytes, declared %d", len(buf), fw.want)
	}
	fw.buf = buf
	return nil
}

// AppendFrameVec queues a frame whose payload is written by reference:
// the header goes into the batch buffer, the payload slice is recorded
// for Flush's scatter-gather write. The caller must keep payload
// unmodified until Flush returns (or until onFlush hands it back).
func (fw *Writer) AppendFrameVec(frameType byte, streamID uint64, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	fw.buf = append(fw.buf, frameType)
	fw.buf = binary.AppendUvarint(fw.buf, streamID)
	fw.buf = binary.AppendUvarint(fw.buf, uint64(len(payload)))
	fw.segs = append(fw.segs, vecSeg{pos: len(fw.buf), payload: payload})
	return nil
}

// SetFlushHook installs fn to run after each Flush that wrote
// by-reference segments, receiving the segment payloads in queue order.
// The transport uses it to recycle pooled chunk buffers once written.
func (fw *Writer) SetFlushHook(fn func(segs [][]byte)) { fw.onFlush = fn }

// Flush writes every buffered frame. With no by-reference segments this
// is a single Write; with segments it builds a scatter-gather list
// interleaving batch-buffer regions and segment payloads and hands it to
// net.Buffers.WriteTo — writev on TCP connections, so segment bytes go
// to the kernel straight from their own buffers.
func (fw *Writer) Flush() error {
	if len(fw.buf) == 0 && len(fw.segs) == 0 {
		return nil
	}
	var n int64
	var err error
	if len(fw.segs) == 0 {
		var w int
		w, err = fw.w.Write(fw.buf)
		n = int64(w)
	} else {
		vec := fw.vec[:0]
		prev := 0
		for _, s := range fw.segs {
			if s.pos > prev {
				vec = append(vec, fw.buf[prev:s.pos])
			}
			prev = s.pos
			if len(s.payload) > 0 {
				vec = append(vec, s.payload)
			}
		}
		if prev < len(fw.buf) {
			vec = append(vec, fw.buf[prev:])
		}
		// WriteTo takes a pointer receiver and consumes the header it is
		// given; calling it on the (heap-resident) field instead of the
		// local keeps the slice header from escaping per flush. The local
		// still holds the full header over the same backing array, so the
		// cleanup below restores and clears it.
		fw.vec = vec
		n, err = fw.vec.WriteTo(fw.w)
		fw.vec = vec
		for i := range fw.vec {
			fw.vec[i] = nil
		}
		fw.vec = fw.vec[:0]
		if fw.onFlush != nil {
			out := fw.flushSegs[:0]
			for _, s := range fw.segs {
				out = append(out, s.payload)
			}
			fw.onFlush(out)
			fw.flushSegs = out[:0]
		}
		for i := range fw.segs {
			fw.segs[i] = vecSeg{}
		}
		fw.segs = fw.segs[:0]
	}
	if cap(fw.buf) > maxRetainedWriteBuf {
		fw.buf = make([]byte, 0, 4096)
	} else {
		fw.buf = fw.buf[:0]
	}
	fw.torn = err != nil && n > 0
	return err
}

// Torn reports whether the last Flush failed after some of its bytes were
// written: the peer then holds a truncated frame and the stream cannot
// carry another. A Flush that failed before its first byte (a write
// deadline that had already passed, say) dropped its frames whole and left
// the stream intact.
func (fw *Writer) Torn() bool { return fw.torn }

// AppendUvarint appends x to buf as an unsigned varint.
func AppendUvarint(buf []byte, x uint64) []byte { return binary.AppendUvarint(buf, x) }

// Uvarint decodes an unsigned varint from buf, returning the value and the
// number of bytes consumed (0 if buf is truncated).
func Uvarint(buf []byte) (uint64, int) { return binary.Uvarint(buf) }
