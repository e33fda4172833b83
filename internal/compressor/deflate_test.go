package compressor

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rpcscale/internal/testutil"
)

// stitched returns n bytes assembled from random fragments of a small
// random dictionary, the way bench/rpc.go builds fleet_mix's payloads:
// locally repetitive, like a structured RPC payload.
func stitched(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	dict := make([]byte, 2048)
	rng.Read(dict)
	out := make([]byte, 0, n+64)
	for len(out) < n {
		off, l := rng.Intn(len(dict)-64), 8+rng.Intn(56)
		out = append(out, dict[off:off+l]...)
	}
	return out[:n]
}

func random(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// farMatch is random bytes with src[at:at+16] repeated dist bytes later.
func farMatch(dist int) []byte {
	b := random(int64(dist), dist+64)
	copy(b[dist+8:], b[8:24])
	return b
}

// seeds are the inputs each corner of the encoder needs, and the corpus
// both fuzz targets start from.
var seeds = map[string][]byte{
	"empty":             {},
	"1 byte":            {0x42},
	"3 bytes":           []byte("abc"),
	"8 bytes":           []byte("abcdabcd"),
	"64 KiB of zeros":   make([]byte, 64<<10),                             // nothing but maximum-length matches
	"random 16 KiB":     random(1, 16<<10),                                // must not shrink
	"distance 32768":    farMatch(maxDist),                                // the farthest match DEFLATE can name
	"distance 32769":    farMatch(maxDist + 1),                            // one past it: literals
	"3-byte repeats":    bytes.Repeat([]byte("xyz"), 400),                 // period below the 4-byte hash
	"literals over 143": bytes.Repeat([]byte{144, 200, 255, 143, 0}, 100), // the 9-bit codes
	"stitched 600 B":    stitched(1, 600),
	"stitched 4 KiB":    stitched(2, 4<<10),
	"1 MiB":             stitched(3, 1<<20), // what a call with the bulk lane off may carry
}

// inflateStdlib decodes a compressed payload with nothing of this package
// but the knowledge that a uvarint comes first.
func inflateStdlib(t testing.TB, z []byte) []byte {
	n, head := binary.Uvarint(z)
	if head <= 0 {
		t.Fatalf("no length prefix in % x", z[:min(len(z), 16)])
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(flate.NewReader(bytes.NewReader(z[head:]))); err != nil {
		t.Fatalf("stdlib inflate: %v", err)
	}
	if uint64(out.Len()) != n {
		t.Fatalf("declared %d bytes, stream holds %d", n, out.Len())
	}
	return out.Bytes()
}

// checkCompress is the encoder's contract on one input: what CompressAppend
// emits is behind the prefix already in dst, shorter than the input, and a
// DEFLATE stream the standard library reads back to the input; what it
// declines, Compress still encodes.
func checkCompress(t testing.TB, c *Compressor, src []byte) (shrank bool) {
	prefix := []byte("prefix")
	z, ok := c.CompressAppend(append([]byte(nil), prefix...), src)
	if !bytes.HasPrefix(z, prefix) {
		t.Fatalf("dst clobbered: % x", z[:min(len(z), 16)])
	}
	z = z[len(prefix):]
	if ok {
		if len(z) >= len(src) {
			t.Fatalf("reported a gain: %d -> %d bytes", len(src), len(z))
		}
		if got := inflateStdlib(t, z); !bytes.Equal(got, src) {
			t.Fatalf("stdlib inflates %d bytes to something else", len(src))
		}
	} else if len(z) != 0 {
		t.Fatalf("declined, yet appended %d bytes", len(z))
	}
	w, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := inflateStdlib(t, w); !bytes.Equal(got, src) {
		t.Fatalf("Compress: stdlib inflates %d bytes to something else", len(src))
	}
	back, err := c.DecompressAppend(prefix[:len(prefix):len(prefix)], w, len(src))
	if err != nil || !bytes.Equal(back[len(prefix):], src) || !bytes.HasPrefix(back, prefix) {
		t.Fatalf("DecompressAppend: %d bytes, %v", len(back), err)
	}
	return ok
}

func TestSeedsConform(t *testing.T) {
	c := New(Flate, nil)
	shrinks := map[string]bool{ // the rest must not
		"64 KiB of zeros": true, "3-byte repeats": true, "literals over 143": true,
		"stitched 600 B": true, "stitched 4 KiB": true, "1 MiB": true,
	}
	for name, src := range seeds {
		if got := checkCompress(t, c, src); got != shrinks[name] {
			t.Errorf("%s: shrank = %v", name, got)
		}
	}
	// The two distances differ in exactly the one match.
	long := func(dist int) int {
		z, _ := c.Compress(farMatch(dist))
		return len(z)
	}
	if in, out := long(maxDist), long(maxDist+1); in >= out {
		t.Errorf("match at distance %d: %d bytes; at %d: %d bytes", maxDist, in, maxDist+1, out)
	}
	if z, _ := c.Compress(seeds["64 KiB of zeros"]); len(z) > 64<<10/maxMatch*2+16 {
		t.Errorf("64 KiB of zeros took %d bytes: matches are not running to %d", len(z), maxMatch)
	}
}

// TestIncompressibleIsCheap holds the price of a payload that cannot
// shrink: the match search crosses it in ever longer steps and the one
// literal run is refused before it is encoded.
func TestIncompressibleIsCheap(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("timing differs under instrumented builds")
	}
	c := New(Flate, nil)
	src := seeds["random 16 KiB"]
	dst := make([]byte, 0, len(src)+64)
	best := time.Hour
	for try := 0; try < 20; try++ {
		start := time.Now()
		for i := 0; i < 100; i++ {
			if _, ok := c.CompressAppend(dst, src); ok {
				t.Fatal("random bytes shrank")
			}
		}
		best = min(best, time.Since(start)/100)
	}
	if best > 15*time.Microsecond {
		t.Errorf("declining 16 KiB of random bytes takes %v, want < 15µs", best)
	}
}

// TestGeneratedInputsConform runs the contract over inputs built the way an
// LZ77 stream is — fresh bytes, runs, and copies of earlier bytes from any
// distance up to past the window — which byte-level fuzzing mutations
// rarely assemble at length.
func TestGeneratedInputsConform(t *testing.T) {
	c := New(Flate, nil)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 300; i++ {
		src := make([]byte, 0, 80<<10)
		for target := rng.Intn(cap(src) >> uint(rng.Intn(8))); len(src) < target; {
			n := 1 + rng.Intn(1<<uint(rng.Intn(10)))
			switch k := rng.Intn(4); {
			case k == 0 || len(src) == 0:
				fresh := make([]byte, n)
				rng.Read(fresh)
				src = append(src, fresh...)
			case k == 1:
				src = append(src, bytes.Repeat(src[len(src)-1:], n)...)
			default:
				from := len(src) - 1 - rng.Intn(min(len(src), maxDist+2048))
				for ; n > 0; n-- { // byte by byte: the copy may overlap itself
					src = append(src, src[from])
					from++
				}
			}
		}
		checkCompress(t, c, src)
	}
}

func FuzzCompressInflatesWithStdlib(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	c := New(Flate, nil)
	f.Fuzz(func(t *testing.T, src []byte) { checkCompress(t, c, src) })
}

// FuzzDecompress feeds DecompressAppend bytes a peer could send: it may
// refuse them, or return what they honestly encode, and either way stays
// inside limit and inside the capacity it was handed.
func FuzzDecompress(f *testing.F) {
	c := New(Flate, nil)
	for _, s := range seeds {
		z, _ := c.Compress(s)
		f.Add(z, len(s))
		f.Add(z[:len(z)/2], len(s)) // truncated
		f.Add(z, len(s)/2)          // over the limit
	}
	f.Add(binary.AppendUvarint(nil, 1<<40), 1<<20)                     // declares a terabyte
	f.Add(append(binary.AppendUvarint(nil, 1<<20), 0x63, 0, 0), 1<<20) // declares more than 3 bytes can hold
	f.Fuzz(func(t *testing.T, z []byte, limit int) {
		limit = min(max(limit, 0), 1<<21)
		dst := make([]byte, 3, 3+limit)
		out, err := c.DecompressAppend(dst, z, limit)
		if &out[0] != &dst[0] {
			t.Fatalf("allocated with %d bytes of capacity on hand", limit)
		}
		if err != nil {
			if len(out) != 3 {
				t.Fatalf("error %v, yet %d bytes appended", err, len(out)-3)
			}
			return
		}
		if len(out)-3 > limit {
			t.Fatalf("%d bytes out, limit %d", len(out)-3, limit)
		}
		if want := inflateStdlib(t, z); !bytes.Equal(out[3:], want) {
			t.Fatalf("accepted %d bytes the stdlib inflates otherwise", len(z))
		}
	})
}

// TestDecompressBounds is the decompression bomb, at the package's edge:
// the length a payload declares is checked against the limit and against
// what its stream could hold before anything is allocated, and a stream
// that runs past or stops short of it is refused.
func TestDecompressBounds(t *testing.T) {
	c := New(Flate, nil)
	bomb, _ := c.Compress(make([]byte, 8<<20))
	if len(bomb) > 128<<10 {
		t.Fatalf("8 MiB of zeros compressed to %d bytes", len(bomb))
	}
	_, head := binary.Uvarint(bomb)
	relabel := func(n uint64) []byte { return append(binary.AppendUvarint(nil, n), bomb[head:]...) }
	cases := []struct {
		name  string
		z     []byte
		limit int
		alloc uint64 // most it may allocate finding out
	}{
		{"over the limit", bomb, 1 << 20, 0},
		{"declares less than it holds", relabel(4096), 1 << 20, 4096},
		{"declares more than it holds", relabel(8<<20 + 1), 16 << 20, 8<<20 + 1},
		{"declares more than any stream this short could hold", append(binary.AppendUvarint(nil, 1<<24), 0x63, 0, 0), 16 << 20, 0},
		{"truncated", bomb[:len(bomb)/2], 16 << 20, 8 << 20},
		{"no prefix", nil, 16 << 20, 0},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := c.DecompressAppend(nil, tc.z, tc.limit)
		runtime.ReadMemStats(&after)
		if err == nil || len(out) != 0 {
			t.Errorf("%s: %d bytes, err %v", tc.name, len(out), err)
		}
		// 64 KiB of grace: a collection may have emptied the inflater pool.
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.alloc+64<<10 {
			t.Errorf("%s: allocated %d bytes refusing it, want at most %d", tc.name, got, tc.alloc)
		}
	}
	if out, err := c.DecompressAppend(nil, bomb, 8<<20); err != nil || len(out) != 8<<20 {
		t.Errorf("at the limit exactly: %d bytes, %v", len(out), err)
	}
}

// TestCompressAppendAllocs is the allocation floor: nothing for the append
// forms into buffers with room, two for the Compress+Decompress pair (one
// output buffer each; the parent's pair made 11).
func TestCompressAppendAllocs(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("allocation counts differ under instrumented builds")
	}
	c := New(Flate, nil)
	src := stitched(7, 4<<10)
	zbuf := make([]byte, 0, len(src)+outputSlack)
	obuf := make([]byte, 0, len(src))
	z, _ := c.CompressAppend(zbuf, src) // warm the inflater pool
	if _, err := c.DecompressAppend(obuf, z, len(src)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		z, ok := c.CompressAppend(zbuf, src)
		if !ok {
			t.Fatal("did not shrink")
		}
		if out, err := c.DecompressAppend(obuf, z, len(src)); err != nil || len(out) != len(src) {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CompressAppend+DecompressAppend into reused buffers: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		z, _ := c.Compress(src)
		if _, err := c.Decompress(z); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Compress+Decompress: %v allocs, want <= 2", n)
	}
}
