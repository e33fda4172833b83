package compressor

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math/bits"
	"testing"
)

// bitStream writes a DEFLATE stream a symbol at a time, for streams the
// encoder never writes.
type bitStream struct {
	b    []byte
	acc  uint64
	nacc uint
}

func (s *bitStream) put(v uint64, n uint) *bitStream {
	s.acc |= v << s.nacc
	for s.nacc += n; s.nacc >= 8; s.nacc -= 8 {
		s.b = append(s.b, byte(s.acc))
		s.acc >>= 8
	}
	return s
}

// bits is how many bits have been written.
func (s *bitStream) bits() int { return 8*len(s.b) + int(s.nacc) }

// header starts a fixed-Huffman block.
func (s *bitStream) header(final bool) *bitStream {
	if final {
		return s.put(1|1<<1, 3)
	}
	return s.put(1<<1, 3)
}

func (s *bitStream) sym(sym int) *bitStream {
	code, n := litLen(sym)
	return s.put(uint64(code), n)
}

func (s *bitStream) lit(b ...byte) *bitStream {
	for _, c := range b {
		s.sym(int(c))
	}
	return s
}

// distCode writes distance code c, then its extra bits v.
func (s *bitStream) distCode(c int, v uint64) *bitStream {
	s.put(uint64(bits.Reverse8(uint8(c))>>3), 5)
	if c >= 4 {
		return s.put(v, uint(c/2-1))
	}
	return s
}

// match writes a length and distance the way the encoder does.
func (s *bitStream) match(length, dist int) *bitStream {
	ls := lenSym[length-3]
	s.put(uint64(ls>>4), uint(ls&15))
	d := uint32(dist - 1)
	dc, extra := d, uint(0)
	if d >= 4 {
		extra = uint(bits.Len32(d)) - 2
		dc = uint32(2*extra+2) + d>>extra&1
	}
	return s.distCode(int(dc), uint64(d&(1<<extra-1)))
}

// end writes end-of-block and pads to a byte: the stream's last block.
func (s *bitStream) end() *bitStream {
	s.sym(256)
	return s.put(0, (8-s.nacc)%8)
}

// payload prefixes the stream with a declared length.
func (s *bitStream) payload(n int) []byte {
	return append(binary.AppendUvarint(nil, uint64(n)), s.b...)
}

// refInflate is what DecompressAppend did before it decoded anything
// itself: the standard library's inflater, the declared length exactly,
// then end of stream.
func refInflate(z []byte, limit int) ([]byte, error) {
	n, head, err := decodedLen(z, limit)
	if err != nil {
		return nil, err
	}
	r := flate.NewReader(bytes.NewReader(z[head:]))
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	if k, err := r.Read(make([]byte, 1)); k != 0 || err != io.EOF {
		return nil, errLong
	}
	return out, nil
}

// checkAgainstStdlib decodes z both ways and requires one verdict: the
// same bytes, or an error with nothing appended.
func checkAgainstStdlib(t testing.TB, c *Compressor, z []byte, limit int) (accepted bool) {
	want, wantErr := refInflate(z, limit)
	prefix := []byte("prefix")
	out, err := c.DecompressAppend(prefix[:len(prefix):len(prefix)], z, limit)
	if !bytes.Equal(out[:len(prefix)], prefix) {
		t.Fatalf("dst clobbered: % x", out[:len(prefix)])
	}
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("DecompressAppend: %v; stdlib: %v", err, wantErr)
	case err != nil && len(out) != len(prefix):
		t.Fatalf("error %v, yet %d bytes appended", err, len(out)-len(prefix))
	case err == nil && !bytes.Equal(out[len(prefix):], want):
		t.Fatalf("%d bytes decoded, not the %d the stdlib decodes", len(out)-len(prefix), len(want))
	}
	return err == nil
}

type inflateCase struct {
	name   string
	z      []byte
	accept bool
	fixed  bool // takes the fixed-block decoder, not the stdlib fallback
}

func inflateCases() []inflateCase {
	fixed := func() *bitStream { return new(bitStream).header(true) }
	ab := []byte("ab")

	// A length with five extra bits, after a nine-bit literal so that a
	// byte boundary falls inside them; the stream is cut there.
	cut := fixed().lit(200, 'a')
	extraAt := cut.bits() + 8 // after symbol 281
	keep := (extraAt + 4) / 8
	if 8*keep <= extraAt || 8*keep >= extraAt+5 {
		panic("cut stream: no byte boundary inside the extra bits")
	}
	cutZ := cut.match(131+17, 1).end().payload(2 + 148)
	cutZ = cutZ[:len(cutZ)-len(cut.b)+keep]

	far := random(9, maxDist)
	var nineBit []byte
	for b := 144; b < 256; b++ {
		nineBit = append(nineBit, byte(b))
	}

	stored, _ := New(Flate, nil).Compress(random(4, 4<<10))
	var dyn bytes.Buffer
	w, _ := flate.NewWriter(&dyn, flate.BestCompression)
	w.Write(stitched(5, 4<<10))
	w.Close()
	notFinal := new(bitStream).header(false).lit('x', 'y').sym(256).header(true).lit('z').match(3, 3).end()

	return []inflateCase{
		// Declared as if 286 and 287 were a match of length 1.
		{"symbol 286", fixed().lit(ab...).sym(286).distCode(0, 0).end().payload(3), false, true},
		{"symbol 287", fixed().lit(ab...).sym(287).distCode(0, 0).end().payload(3), false, true},
		{"distance code 30", fixed().lit(ab...).sym(257).distCode(30, 0).end().payload(5), false, true},
		{"distance code 31", fixed().lit(ab...).sym(257).distCode(31, 0).end().payload(5), false, true},
		{"distance past the bytes written", fixed().lit(ab...).match(3, 3).end().payload(5), false, true},
		{"distance at the bytes written", fixed().lit(ab...).match(3, 2).end().payload(5), true, true},
		{"cut inside a match's extra bits", cutZ, false, true},
		{"cut before end of block", fixed().lit(ab...).payload(2), false, true},
		// Three bytes of a 26-bit stream: the two end-of-block bits cut off
		// are zeros, as are the bits the decoder reads past the end.
		{"cut inside end of block", fixed().lit(ab...).end().payload(2)[:1+3], false, true},
		{"end of block one byte early", fixed().lit(ab...).match(3, 2).end().payload(6), false, true},
		{"end of block one byte late", fixed().lit(ab...).match(3, 2).end().payload(4), false, true},
		{"match past the declared length", fixed().lit(ab...).match(10, 2).end().payload(11), false, true},
		{"literal past the declared length", fixed().lit('a', 'b', 'c').end().payload(2), false, true},
		{"empty", fixed().end().payload(0), true, true},
		{"bytes after the block", append(fixed().lit(ab...).end().payload(2), 0xFF, 0xFF), true, true},
		{"distance 1 length 258", fixed().lit('z').match(258, 1).end().payload(259), true, true},
		{"distance 32768", fixed().lit(far...).match(258, maxDist).end().payload(maxDist + 258), true, true},
		{"length 258 as symbol 284", fixed().lit('z').sym(284).put(31, 5).distCode(0, 0).end().payload(259), true, true},
		{"all 9-bit literals", fixed().lit(nineBit...).end().payload(len(nineBit)), true, true},
		{"stored blocks", stored, true, false},
		{"non-final fixed block", notFinal.payload(6), true, false},
		{"dynamic block", append(binary.AppendUvarint(nil, 4<<10), dyn.Bytes()...), true, false},
	}
}

// TestInflateCorners holds the fixed-block decoder to the stdlib's verdict
// on streams built to hit each of its checks, and sends every other block
// type to the stdlib.
func TestInflateCorners(t *testing.T) {
	c := New(Flate, nil)
	for _, tc := range inflateCases() {
		t.Run(tc.name, func(t *testing.T) {
			_, head := binary.Uvarint(tc.z)
			if got := fixedFinal(tc.z[head:]); got != tc.fixed {
				t.Errorf("fixedFinal = %v", got)
			}
			if got := checkAgainstStdlib(t, c, tc.z, 1<<20); got != tc.accept {
				t.Errorf("accepted = %v", got)
			}
		})
	}
}

// FuzzInflateMatchesStdlib requires DecompressAppend to accept a stream
// exactly when the stdlib inflates it to its declared length, and then to
// the same bytes: FuzzDecompress checks what is accepted, this also what
// is refused.
func FuzzInflateMatchesStdlib(f *testing.F) {
	c := New(Flate, nil)
	for _, s := range seeds {
		z, _ := c.Compress(s)
		f.Add(z)
	}
	for _, tc := range inflateCases() {
		f.Add(tc.z)
	}
	f.Fuzz(func(t *testing.T, z []byte) { checkAgainstStdlib(t, c, z, 1<<20) })
}

// BenchmarkDecompressAppend is inflate alone, into a buffer with room, on
// the stitched payloads compressed traffic carries and on the stored-block
// form Compress gives 4 KiB of random bytes.
func BenchmarkDecompressAppend(b *testing.B) {
	c := New(Flate, nil)
	for _, p := range []struct {
		name  string
		src   []byte
		fixed bool // compresses, so takes the fixed-block decoder
	}{
		{"stitched-600B", stitched(1, 600), true},
		{"stitched-1.5KiB", stitched(2, 1536), true},
		{"stitched-4KiB", stitched(3, 4<<10), true},
		{"stitched-15KB", stitched(4, 15000), true},
		{"stored-4KiB", random(5, 4<<10), false},
	} {
		b.Run(p.name, func(b *testing.B) {
			z, err := c.Compress(p.src)
			if _, head := binary.Uvarint(z); err != nil || fixedFinal(z[head:]) != p.fixed {
				b.Fatalf("Compress: %v, fixed block %v", err, !p.fixed)
			}
			out := make([]byte, 0, len(p.src))
			b.SetBytes(int64(len(p.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.DecompressAppend(out, z, len(p.src)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
