package wire

import (
	"bytes"
	"io"
	"testing"

	"rpcscale/internal/testutil"
)

// countingWriter counts Write calls to verify syscall coalescing.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// countingReader counts Read calls and serves from an in-memory buffer.
type countingReader struct {
	reads int
	r     *bytes.Reader
}

func (r *countingReader) Read(p []byte) (int, error) {
	r.reads++
	return r.r.Read(p)
}

func TestWriterCoalescesBatchIntoOneWrite(t *testing.T) {
	cw := &countingWriter{}
	w := NewWriter(cw)
	payloads := [][]byte{
		bytes.Repeat([]byte{1}, 100),
		bytes.Repeat([]byte{2}, 2000),
		bytes.Repeat([]byte{3}, 5),
	}
	for i, p := range payloads {
		if err := appendFrame(w, &Frame{Type: FrameRequest, StreamID: uint64(i + 1), Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Errorf("batch of %d frames used %d writes, want 1", len(payloads), cw.writes)
	}
	r := NewReader(&cw.buf)
	for i, p := range payloads {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.StreamID != uint64(i+1) || !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d: round trip mismatch", i)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestWriterSingleFrameAllocBudget(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation counts differ under instrumented builds")
	}
	w := NewWriter(io.Discard)
	payload := make([]byte, 1024)
	f := &Frame{Type: FrameRequest, StreamID: 7, Payload: payload}
	write := func() {
		if err := appendFrame(w, f); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm the batch buffer so the measurement reflects steady state
	allocs := testing.AllocsPerRun(200, write)
	if allocs > 1 {
		t.Errorf("steady-state single-frame write: %.1f allocs/op, want <= 1", allocs)
	}
}

func TestSealInPlaceRoundTrip(t *testing.T) {
	cw := &countingWriter{}
	w := NewWriter(cw)
	payload := []byte("sealed in place")
	buf, err := w.BeginFrame(FrameResponse, 42, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, payload...)
	if err := w.EndFrame(buf); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&cw.buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameResponse || f.StreamID != 42 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("round trip mismatch: %+v", f)
	}
}

func TestEndFrameLengthMismatch(t *testing.T) {
	w := NewWriter(io.Discard)
	buf, err := w.BeginFrame(FrameRequest, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, "short"...)
	if err := w.EndFrame(buf); err == nil {
		t.Fatal("EndFrame accepted a payload shorter than declared")
	}
}

func TestReaderCoalescesHeaderReads(t *testing.T) {
	// 100 small frames, each a 3-byte header plus 16-byte payload. The old
	// byte-at-a-time header decoding issued one Read per header byte (300+
	// reads); the buffered reader should pull whole windows.
	var stream bytes.Buffer
	const frames = 100
	payload := bytes.Repeat([]byte{0xab}, 16)
	for i := 0; i < frames; i++ {
		if err := writeFrame(&stream, &Frame{Type: FrameRequest, StreamID: uint64(i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	cr := &countingReader{r: bytes.NewReader(stream.Bytes())}
	r := NewReader(cr)
	for i := 0; i < frames; i++ {
		if _, err := r.ReadFrame(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if cr.reads > 5 {
		t.Errorf("%d frames took %d reads; read-ahead should coalesce them into a few window fills", frames, cr.reads)
	}
}

func TestReaderReleasesOversizedScratch(t *testing.T) {
	big := bytes.Repeat([]byte{0x5c}, maxRetainedScratch+4096)
	var stream bytes.Buffer
	if err := writeFrame(&stream, &Frame{Type: FrameRequest, StreamID: 1, Payload: big}); err != nil {
		t.Fatal(err)
	}
	small := []byte("small")
	if err := writeFrame(&stream, &Frame{Type: FrameRequest, StreamID: 2, Payload: small}); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&stream)
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, big) {
		t.Fatal("oversized payload mismatch")
	}
	if cap(r.scratch) <= maxRetainedScratch {
		t.Fatalf("test setup: expected oversized scratch, cap=%d", cap(r.scratch))
	}
	f, err = r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, small) {
		t.Fatal("small payload mismatch")
	}
	if cap(r.scratch) > maxRetainedScratch {
		t.Errorf("reader retained %d-byte scratch after an oversized frame; want <= %d", cap(r.scratch), maxRetainedScratch)
	}
}

func TestWriterReleasesOversizedBatchBuffer(t *testing.T) {
	w := NewWriter(io.Discard)
	big := make([]byte, maxRetainedWriteBuf+4096)
	if err := appendFrame(w, &Frame{Type: FrameRequest, StreamID: 1, Payload: big}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) > maxRetainedWriteBuf {
		t.Errorf("writer retained %d-byte batch buffer; want <= %d", cap(w.buf), maxRetainedWriteBuf)
	}
}

func TestBufPoolCapacityContract(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 1 << 20, 1<<20 + 1, 3 << 20} {
		b := GetBuf(n)
		if len(b) != 0 {
			t.Fatalf("GetBuf(%d): len=%d, want 0", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("GetBuf(%d): cap=%d, want >= %d", n, cap(b), n)
		}
		b = append(b, make([]byte, n)...)
		PutBuf(b)
	}
	// A recycled buffer must still satisfy the class it is handed out from.
	b := GetBuf(1000)
	PutBuf(b)
	b2 := GetBuf(1024)
	if cap(b2) < 1024 {
		t.Fatalf("recycled buffer: cap=%d, want >= 1024", cap(b2))
	}
	PutBuf(nil) // no-op
}
