package compressor

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The encoder: one pass of greedy LZ77 over a 4-byte hash, written as a
// single fixed-Huffman block (RFC 1951 §3.2.6). RPC payloads are a few KiB;
// at that size building per-message Huffman tables costs more cycles than
// the rest of the compression and more bytes of header than the better
// codes win back, so the code tables here are the constants the RFC gives
// and a symbol goes from the matcher straight into the output's bit stream.

const (
	minMatch  = 4 // what the hash covers; RFC 1951 allows 3
	maxMatch  = 258
	maxDist   = 32768
	hashBits  = 12
	hashShift = 32 - hashBits

	// inputMargin keeps the 8-byte loads of the match search inside src;
	// the bytes past it leave as literals.
	inputMargin = 8
	// outputSlack is how far past its budget the bit writer may run before
	// it notices: one 8-byte store.
	outputSlack = 8
)

// The fixed code, each entry a symbol ready to OR into the bit stream:
// the bits to write (Huffman code bit-reversed, since DEFLATE packs codes
// most-significant bit first into a least-significant-bit-first stream,
// then any extra bits) shifted left by 4, over their count.
var (
	litSym  [256]uint16              // a literal byte: 8 or 9 bits
	lenSym  [maxMatch - 3 + 1]uint32 // a match length, by length-3: 7 to 13 bits
	distRev [30]uint8                // a distance code's 5 bits, reversed
)

// litLen is literal/length symbol sym (0 to 287) of the fixed code: its
// Huffman code bit-reversed, as the stream carries it, and its length.
// The encoder's tables and the decoder's (inflate.go) both come from here.
func litLen(sym int) (code uint32, n uint) {
	switch {
	case sym < 144:
		return uint32(bits.Reverse8(uint8(0x30 + sym))), 8
	case sym < 256:
		return uint32(bits.Reverse16(uint16(0x190+sym-144)) >> 7), 9
	case sym < 280:
		return uint32(bits.Reverse8(uint8(sym-256)) >> 1), 7
	default:
		return uint32(bits.Reverse8(uint8(0xC0 + sym - 280))), 8
	}
}

// lengthCode is the symbol for a match of length m+3 and the number of
// extra bits after it, which carry the low bits of m.
func lengthCode(m int) (sym int, extra uint) {
	switch {
	case m == maxMatch-3:
		return 285, 0
	case m >= 8:
		extra = uint(bits.Len(uint(m))) - 3
		return 257 + 4*int(extra) + 4 + (m>>extra)&3, extra
	}
	return 257 + m, 0
}

func init() {
	for b := range litSym {
		code, n := litLen(b)
		litSym[b] = uint16(code<<4 | uint32(n))
	}
	for m := range lenSym { // m = length-3
		sym, extra := lengthCode(m)
		code, n := litLen(sym)
		code |= uint32(m) & (1<<extra - 1) << n
		lenSym[m] = code<<4 | uint32(n+extra)
	}
	for c := range distRev {
		distRev[c] = bits.Reverse8(uint8(c)) >> 3
	}
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }
func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

func hash4(u uint32) uint32 { return (u * 0x1e35a7bd) >> hashShift }

// bitWriter appends bits, least significant first, to out. It stores eight
// bytes at a time, so out needs outputSlack bytes past the last one kept.
type bitWriter struct {
	out  []byte
	n    int    // bytes of out written
	acc  uint64 // bits not yet in out, from bit 0
	nacc uint   // how many; under 8 after flush
}

// put adds the low count bits of v; the caller keeps nacc+count within 64.
func (w *bitWriter) put(v uint64, count uint) {
	w.acc |= v << w.nacc
	w.nacc += count
}

// flush moves the accumulator's whole bytes to out.
func (w *bitWriter) flush() {
	binary.LittleEndian.PutUint64(w.out[w.n:], w.acc)
	w.n += int(w.nacc >> 3)
	w.acc >>= w.nacc &^ 7
	w.nacc &= 7
}

// literals adds a run of literal bytes; false when the stream is certain to
// pass limit bytes.
func (w *bitWriter) literals(run []byte, limit int) bool {
	// Eight bits is the shortest literal: a run that cannot fit at that
	// price ends the attempt before a bit of it is written, which is how
	// incompressible input costs a search and no encoding.
	if w.n+len(run) > limit {
		return false
	}
	for _, b := range run {
		s := litSym[b]
		w.put(uint64(s>>4), uint(s&15))
		if w.nacc > 64-9 {
			if w.flush(); w.n > limit {
				return false
			}
		}
	}
	w.flush()
	return w.n <= limit
}

// deflateFixed writes src into out as one final fixed-Huffman block and
// returns the stream's length, or false as soon as that length is certain
// to pass limit — out then holds nothing of use. out must be at least
// limit+outputSlack bytes long.
func deflateFixed(out, src []byte, limit int) (int, bool) {
	// The header and end-of-block are ten bits; the hash table keeps
	// positions as int32.
	if limit < 2 || len(src) > math.MaxInt32 {
		return 0, false
	}
	w := bitWriter{out: out}
	w.put(1|1<<1, 3) // BFINAL, BTYPE=01

	var table [1 << hashBits]int32 // last position seen for each hash
	emitted := 0                   // src[:emitted] is in the stream
	if sLimit := len(src) - inputMargin; sLimit > 0 {
		s := 1
		nextHash := hash4(load32(src, s))
		for {
			// Search for a match, stepping faster the longer none turns
			// up (128 misses at every byte, then 64 at every other, …), so
			// 16 KiB with nothing to find is crossed in under a thousand
			// probes.
			skip := 128
			nextS, cand := s, 0
			for {
				s = nextS
				step := skip >> 7
				nextS = s + step
				skip += step
				if nextS > sLimit {
					goto remainder
				}
				cand = int(table[nextHash])
				table[nextHash] = int32(s)
				nextHash = hash4(load32(src, nextS))
				if load32(src, s) == load32(src, cand) && s-cand <= maxDist {
					break
				}
			}
			// The search may have stepped over the match's first bytes.
			for s > emitted && cand > 0 && src[s-1] == src[cand-1] {
				s--
				cand--
			}
			if !w.literals(src[emitted:s], limit) {
				return 0, false
			}
			// One match, then any that start right where it ends.
			for {
				base := s
				end := min(len(src), base+maxMatch)
				s += minMatch
				c := cand + minMatch
				for s+8 <= end {
					if x := load64(src, s) ^ load64(src, c); x != 0 {
						s += bits.TrailingZeros64(x) >> 3
						goto matched
					}
					s += 8
					c += 8
				}
				for s < end && src[s] == src[c] {
					s++
					c++
				}
			matched:
				ls := lenSym[s-base-3]
				w.put(uint64(ls>>4), uint(ls&15))
				d := uint32(base - cand - 1)
				dc, extra := d, uint(0)
				if d >= 4 {
					extra = uint(bits.Len32(d)) - 2
					dc = uint32(2*extra+2) + d>>extra&1
				}
				w.put(uint64(distRev[dc])|uint64(d&(1<<extra-1))<<5, 5+extra)
				w.flush() // at most 7+13+18 bits were pending
				emitted = s
				if w.n > limit {
					return 0, false
				}
				if s >= sLimit {
					goto remainder
				}
				// Index the match's last byte, then look for a match at s.
				x := load64(src, s-1)
				table[hash4(uint32(x))] = int32(s - 1)
				h := hash4(uint32(x >> 8))
				cand = int(table[h])
				table[h] = int32(s)
				if uint32(x>>8) != load32(src, cand) || s-cand > maxDist {
					s++
					nextHash = hash4(uint32(x >> 16))
					break
				}
			}
		}
	}
remainder:
	if !w.literals(src[emitted:], limit) {
		return 0, false
	}
	w.put(0, 7) // end of block: symbol 256, seven zero bits
	w.nacc += 7 // round the last byte up
	w.flush()
	return w.n, w.n <= limit
}
