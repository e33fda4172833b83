package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
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

// TestReadFrameAllocatesWhatArrives: a header that declares MaxFrameSize
// and is followed by EOF costs about one read-ahead window, not the
// declared 64 MiB.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	hdr := AppendUvarint(AppendUvarint([]byte{FrameRequest}, 1), MaxFrameSize)
	r := NewReader(bytes.NewReader(hdr))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.ReadFrame()
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a bare MaxFrameSize header allocated %d B, want < 1 MiB", got)
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

// FuzzReadFrame: a Reader parses bytes a peer controls. Whatever the
// bytes, reading them yields frames and then io.EOF at a frame boundary
// or one of the reader's errors, never a panic, and allocates in
// proportion to the input, however large its headers claim frames are:
// at most six times its size plus three read-ahead windows (the reader's
// own, a small frame's scratch and a large frame's first growth step) and
// 64 KiB for page rounding and small allocations.
// The frames read, followed by frames cut from the input, written by a
// Writer (alternating BeginFrame and AppendFrameVec) come back unchanged
// through a reader fed one byte per Read. The seeds in testdata cover each
// of the reader's errors, retired and bulk-lane tags, a non-minimal varint
// and a truncated frame of the largest size.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(bytes.NewReader(data))
		var err error
		for err == nil {
			_, err = r.ReadFrame()
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(6*len(data)+3*readBufSize+64<<10); got > limit {
			t.Fatalf("reading %d bytes allocated %d B, over %d", len(data), got, limit)
		}
		if err != io.EOF && err != io.ErrUnexpectedEOF && err != ErrFrameTooLarge &&
			err != errVarintOverflow && !errors.Is(err, ErrBadFrameType) {
			t.Fatalf("ReadFrame error %v is none of the reader's", err)
		}

		var frames []Frame
		r = NewReader(bytes.NewReader(data))
		for {
			fr, err := r.ReadFrame()
			if err != nil {
				break
			}
			frames = append(frames, Frame{fr.Type, fr.StreamID, bytes.Clone(fr.Payload)})
		}
		for rest := data; len(rest) >= 3; {
			n := min(int(rest[2]), len(rest)-3)
			frames = append(frames, Frame{FrameRequest + rest[0]%maxFrameType, uint64(rest[1]) << (rest[1] % 57), rest[3 : 3+n]})
			rest = rest[3+n:]
		}
		var wire bytes.Buffer
		fw := NewWriter(&wire)
		for i := range frames {
			fr := &frames[i]
			if i%2 == 0 {
				err = appendFrame(fw, fr)
			} else {
				err = fw.AppendFrameVec(fr.Type, fr.StreamID, fr.Payload)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		r = NewReader(iotest{r: &wire})
		for i, want := range frames {
			got, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("frame %d of %d: %v", i, len(frames), err)
			}
			if got.Type != want.Type || got.StreamID != want.StreamID || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("frame %d: got %x/%d/%x, want %x/%d/%x", i, got.Type, got.StreamID, got.Payload, want.Type, want.StreamID, want.Payload)
			}
		}
		if _, err := r.ReadFrame(); err != io.EOF {
			t.Fatalf("after %d frames: %v, want io.EOF", len(frames), err)
		}
	})
}
