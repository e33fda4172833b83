package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

// appendFrame queues f on fw the way the data plane does: the payload is
// appended in place between BeginFrame and EndFrame.
func appendFrame(fw *Writer, f *Frame) error {
	buf, err := fw.BeginFrame(f.Type, f.StreamID, len(f.Payload))
	if err != nil {
		return err
	}
	return fw.EndFrame(append(buf, f.Payload...))
}

// writeFrame writes one frame to w through a fresh Writer.
func writeFrame(w io.Writer, f *Frame) error {
	fw := NewWriter(w)
	if err := appendFrame(fw, f); err != nil {
		return err
	}
	return fw.Flush()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []*Frame{
		{Type: FrameRequest, StreamID: 1, Payload: []byte("hello")},
		{Type: FrameResponse, StreamID: 1, Payload: []byte("world")},
		{Type: FrameCancel, StreamID: 99, Payload: nil},
		{Type: FrameWindowUpdate, StreamID: 0, Payload: []byte{0}},
		{Type: FrameGoAway, StreamID: 1 << 62, Payload: bytes.Repeat([]byte{0xAB}, 10000)},
	}
	for _, f := range frames {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	r := NewReader(&buf)
	for i, want := range frames {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.StreamID != want.StreamID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: got %+v", i, got)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(streamID uint64, payload []byte, typeSel uint8) bool {
		ft := byte(typeSel%maxFrameType) + FrameRequest
		var buf bytes.Buffer
		in := &Frame{Type: ft, StreamID: streamID, Payload: payload}
		if err := writeFrame(&buf, in); err != nil {
			return false
		}
		out, err := NewReader(&buf).ReadFrame()
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.StreamID == in.StreamID &&
			bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAppendFrameVecMatchesBeginFrame: a frame queued by reference must
// reach the wire as the same bytes as one appended in place.
func TestAppendFrameVecMatchesBeginFrame(t *testing.T) {
	f := &Frame{Type: FrameStreamChunk, StreamID: 7, Payload: []byte("abc")}
	var inPlace bytes.Buffer
	if err := writeFrame(&inPlace, f); err != nil {
		t.Fatal(err)
	}
	var byRef bytes.Buffer
	fw := NewWriter(&byRef)
	if err := fw.AppendFrameVec(f.Type, f.StreamID, f.Payload); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inPlace.Bytes(), byRef.Bytes()) {
		t.Fatalf("BeginFrame %x != AppendFrameVec %x", inPlace.Bytes(), byRef.Bytes())
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Frame{Type: FrameRequest, StreamID: 3, Payload: []byte("truncate me")}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		_, err := r.ReadFrame()
		if err == nil {
			t.Fatalf("cut=%d: expected error", cut)
		}
		if err == io.EOF {
			t.Fatalf("cut=%d: mid-frame truncation must not be clean EOF", cut)
		}
	}
}

func TestBadFrameType(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0xFF, 0x01, 0x00}))
	_, err := r.ReadFrame()
	if !errors.Is(err, ErrBadFrameType) {
		t.Fatalf("got %v, want ErrBadFrameType", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	// Craft a header declaring a payload beyond MaxFrameSize without
	// actually allocating it.
	hdr := []byte{FrameRequest}
	hdr = AppendUvarint(hdr, 1)
	hdr = AppendUvarint(hdr, MaxFrameSize+1)
	r := NewReader(bytes.NewReader(hdr))
	_, err := r.ReadFrame()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}

	// Writing an oversize frame is also rejected up front.
	if _, err := NewWriter(io.Discard).BeginFrame(FrameRequest, 1, MaxFrameSize+1); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("BeginFrame: got %v, want ErrFrameTooLarge", err)
	}
	if err := writeFrame(io.Discard, &Frame{Type: FrameRequest}); err != nil {
		t.Fatalf("empty frame: %v", err)
	}
}

func TestReaderPayloadReuse(t *testing.T) {
	var buf bytes.Buffer
	_ = writeFrame(&buf, &Frame{Type: FrameRequest, StreamID: 1, Payload: []byte("first")})
	_ = writeFrame(&buf, &Frame{Type: FrameRequest, StreamID: 2, Payload: []byte("secnd")})
	r := NewReader(&buf)
	f1, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	copied := append([]byte(nil), f1.Payload...)
	if _, err := r.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(copied, []byte("first")) {
		t.Fatal("copied payload corrupted")
	}
}

func TestVarintHelpers(t *testing.T) {
	for _, x := range []uint64{0, 1, 127, 128, 1 << 20, 1<<63 - 1} {
		buf := AppendUvarint(nil, x)
		back, n := Uvarint(buf)
		if back != x || n != len(buf) {
			t.Errorf("Uvarint round trip failed for %d", x)
		}
	}
}

func TestReadFrameFromChunkedReader(t *testing.T) {
	// A reader that returns one byte at a time exercises partial reads.
	var buf bytes.Buffer
	want := &Frame{Type: FrameResponse, StreamID: 42, Payload: []byte("chunked payload")}
	_ = writeFrame(&buf, want)
	r := NewReader(iotest{r: &buf})
	got, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, want.Payload) || got.StreamID != 42 {
		t.Fatalf("got %+v", got)
	}
}

type iotest struct{ r io.Reader }

func (i iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return i.r.Read(p)
}
