// Package compressor provides the payload compression stage of the RPC
// stack. Compression is the single largest component of the paper's RPC
// cycle tax (3.1% of all fleet cycles, Fig. 20), so the package meters
// bytes in/out and an explicit work counter that the GWP profiler uses for
// attribution.
//
// A compressed payload is uvarint(uncompressed length) followed by an
// RFC 1951 DEFLATE stream. The sender is this package's own single-pass
// encoder (deflate.go), which only ever writes fixed-Huffman blocks: RPC
// payloads are small, and on small inputs the per-message cost of building
// Huffman tables is most of what a general DEFLATE writer spends. The
// receiver writes into one buffer sized from the declared length and
// refuses a length — declared or actual — over the caller's limit. It
// decodes the one block the encoder writes itself (inflate.go), straight
// from the payload, and hands any other stream, which a conforming peer
// may send, to the standard library's inflater, pooled.
package compressor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Algorithm selects a compression scheme.
type Algorithm uint8

// Supported algorithms. None passes payloads through untouched; Flate is
// the length-prefixed fixed-Huffman DEFLATE of the package comment,
// standing in for the fleet's production compressors.
const (
	None Algorithm = iota
	Flate
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case None:
		return "none"
	case Flate:
		return "flate"
	default:
		return fmt.Sprintf("algorithm(%d)", a)
	}
}

// Stats accumulates compression work across a process, mirroring the
// counters a production RPC stack exports for profiling. A payload the
// encoder refused (CompressAppend false) counts its own size in BytesOut.
type Stats struct {
	CompressCalls   atomic.Uint64
	DecompressCalls atomic.Uint64
	BytesIn         atomic.Uint64 // uncompressed bytes fed to Compress
	BytesOut        atomic.Uint64 // compressed bytes produced
}

// Ratio returns the aggregate compression ratio (out/in), or 1 when no
// bytes have been compressed.
func (s *Stats) Ratio() float64 {
	in := s.BytesIn.Load()
	if in == 0 {
		return 1
	}
	return float64(s.BytesOut.Load()) / float64(in)
}

// Compressor compresses and decompresses RPC payloads. It is safe for
// concurrent use and holds no state but its counters.
type Compressor struct {
	algo  Algorithm
	stats *Stats
}

// New returns a compressor using the given algorithm. stats may be nil.
func New(algo Algorithm, stats *Stats) *Compressor {
	if stats == nil {
		stats = &Stats{}
	}
	return &Compressor{algo: algo, stats: stats}
}

// Algorithm returns the configured algorithm.
func (c *Compressor) Algorithm() Algorithm { return c.algo }

// Stats returns the shared counters.
func (c *Compressor) Stats() *Stats { return c.stats }

// CompressAppend appends the compressed form of src to dst and reports
// true, or — when that form would not be shorter than src, which it learns
// without finishing it, or the algorithm is None — returns dst as it was
// and false: send src as it is. It allocates only if dst lacks
// len(src)+outputSlack bytes of spare capacity.
func (c *Compressor) CompressAppend(dst, src []byte) ([]byte, bool) {
	if c.algo == None {
		return dst, false
	}
	c.stats.CompressCalls.Add(1)
	c.stats.BytesIn.Add(uint64(len(src)))
	at := len(dst)
	dst = growCap(dst, len(src)+outputSlack)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	limit := len(src) - 1 - (len(dst) - at) // shorter than src, prefix included
	if n, ok := deflateFixed(dst[len(dst):cap(dst)], src, limit); ok {
		dst = dst[:len(dst)+n]
		c.stats.BytesOut.Add(uint64(len(dst) - at))
		return dst, true
	}
	c.stats.BytesOut.Add(uint64(len(src)))
	return dst[:at], false
}

// growCap returns dst with at least n bytes of capacity past its length.
func growCap(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// Compress returns the compressed form of payload in a buffer of its own:
// CompressAppend, and where that declines, the same length prefix over
// stored (uncompressed) DEFLATE blocks, so that the result always goes
// through Decompress. With algorithm None the input is returned unchanged
// (no copy).
func (c *Compressor) Compress(payload []byte) ([]byte, error) {
	if c.algo == None {
		c.stats.CompressCalls.Add(1)
		c.stats.BytesIn.Add(uint64(len(payload)))
		c.stats.BytesOut.Add(uint64(len(payload)))
		return payload, nil
	}
	// Room for the stored form, which is also more than CompressAppend needs.
	const maxStored = 65535
	out := make([]byte, 0, binary.MaxVarintLen64+len(payload)+5*(len(payload)/maxStored+1))
	if z, ok := c.CompressAppend(out, payload); ok {
		return z, nil
	}
	out = binary.AppendUvarint(out, uint64(len(payload)))
	for {
		n := min(len(payload), maxStored)
		final := byte(0)
		if n == len(payload) {
			final = 1
		}
		out = append(out, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8)) // BTYPE=00, LEN, NLEN
		out = append(out, payload[:n]...)
		if payload = payload[n:]; len(payload) == 0 {
			return out, nil
		}
	}
}

// maxExpansion is the most a DEFLATE stream can inflate by: a 258-byte
// match for a one-bit length code and a one-bit distance code.
const maxExpansion = 1032

// DecodedLen returns the uncompressed length a compressed payload declares,
// or an error when it declares none, more than limit, or more than a
// stream of its size could hold — so what a caller allocates from this
// number is bounded by both the limit and the bytes the peer really sent.
func DecodedLen(src []byte, limit int) (int, error) {
	n, _, err := decodedLen(src, limit)
	return n, err
}

// decodedLen is DecodedLen, and where the stream starts.
func decodedLen(src []byte, limit int) (n, head int, err error) {
	declared, head := binary.Uvarint(src)
	switch {
	case head <= 0:
		return 0, 0, errors.New("compressor: corrupt payload: no length prefix")
	case declared > uint64(limit):
		return 0, 0, fmt.Errorf("compressor: payload declares %d bytes, limit %d", declared, limit)
	case declared > uint64(len(src)-head)*maxExpansion:
		return 0, 0, fmt.Errorf("compressor: corrupt payload: %d bytes declared by a %d-byte stream", declared, len(src)-head)
	}
	return int(declared), head, nil
}

// DecompressAppend appends the uncompressed form of src — a compressed
// payload from CompressAppend or Compress, whatever this compressor's
// algorithm: there is one compressed format — to dst. The length src
// declares must pass DecodedLen and the stream must hold exactly that many
// bytes; anything else is an error, found without writing past the declared
// length, and dst comes back as it was. It allocates only if dst lacks the
// declared length in spare capacity, and then exactly that.
func (c *Compressor) DecompressAppend(dst, src []byte, limit int) ([]byte, error) {
	c.stats.DecompressCalls.Add(1)
	n, head, err := decodedLen(src, limit)
	if err != nil {
		return dst, err
	}
	at := len(dst)
	dst = growCap(dst, n)
	if z := src[head:]; fixedFinal(z) {
		err = inflateFixed(dst[at:at+n], z)
	} else {
		err = inflateAny(dst[at:at+n], z)
	}
	if err != nil {
		return dst[:at], fmt.Errorf("compressor: corrupt payload: %w", err)
	}
	return dst[:at+n], nil
}

// Decompress reverses Compress, into a buffer of its own.
func (c *Compressor) Decompress(payload []byte) ([]byte, error) {
	if c.algo == None {
		c.stats.DecompressCalls.Add(1)
		return payload, nil
	}
	return c.DecompressAppend(nil, payload, math.MaxInt)
}
