package compressor

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"sync"
)

// The decoder. What this package's encoder writes — one final
// fixed-Huffman block — is decoded here, straight from the payload into
// the caller's buffer: bits come through a 64-bit accumulator, a symbol
// is one table lookup, and a match is copied inside the output, which is
// the whole window. Any other stream, which a conforming peer may send,
// goes to the standard library's inflater.

// The fixed code read the other way. litDec maps the stream's next nine
// bits to the literal/length symbol they start with, as value<<8 | extra
// bits<<4 | code length; the value is the literal byte, symEnd, symBad, or
// symEnd plus the match length before its extra bits. distDec maps the next
// five bits to a distance code, as distance before extra bits<<8 | extra
// bits<<4; zero is one of the two codes (30, 31) that name no distance.
var (
	litDec  [1 << 9]uint32
	distDec [1 << 5]uint32
)

const (
	symEnd = 256 // end of block
	symBad = 257 // 286 and 287: in the code, but no length
)

func init() {
	var val [288]uint32 // each symbol's entry but for its code length
	for sym := range val {
		val[sym] = uint32(min(sym, symBad)) << 8
	}
	for m := 0; m <= maxMatch-3; m++ {
		sym, extra := lengthCode(m)
		val[sym] = uint32(symEnd+3+m&^(1<<extra-1))<<8 | uint32(extra)<<4
	}
	for sym, v := range val {
		code, n := litLen(sym)
		for i := code; i < 1<<9; i += 1 << n {
			litDec[i] = v | uint32(n)
		}
	}
	for c, rev := range distRev {
		base, extra := uint32(c), uint32(0)
		if c >= 4 {
			extra = uint32(c/2 - 1)
			base = (2 | uint32(c)&1) << extra
		}
		distDec[rev] = (base+1)<<8 | extra<<4
	}
}

// fixedFinal reports whether a DEFLATE stream's first block is the final
// one and fixed-Huffman: BFINAL=1, BTYPE=01.
func fixedFinal(src []byte) bool { return len(src) > 0 && src[0]&7 == 1|1<<1 }

var (
	errBadCode = errors.New("invalid symbol or distance")
	errLong    = errors.New("stream runs past the declared length")
)

// inflateFixed decodes src, a stream fixedFinal accepts, into out, which
// it must fill exactly before the block ends. It makes the checks the
// standard library's inflater makes, and ignores what follows the block as
// that one does.
func inflateFixed(out, src []byte) error {
	acc, nb := uint64(src[0]>>3), uint(5) // bits not yet decoded, and how many
	i, o := 1, 0                          // bytes of src in acc (past its end: zeros), of out written
	for {
		// A length and a distance with their extra bits are at most 31
		// bits. Eight bytes at a time leaves the bits above nb holding the
		// next bytes of src, which the next load ORs in again.
		if nb < 31 {
			if i+8 <= len(src) {
				acc |= load64(src, i) << nb
				i += int(63-nb) >> 3
				nb |= 56
			} else {
				for ; nb < 56; nb, i = nb+8, i+1 {
					if i < len(src) {
						acc |= uint64(src[i]) << nb
					}
				}
			}
		}
		e := litDec[acc&(1<<9-1)]
		acc >>= e & 15
		nb -= uint(e & 15)
		switch v := e >> 8; {
		case v < symEnd:
			if o == len(out) {
				return errLong
			}
			out[o] = byte(v)
			o++
			continue
		case v == symEnd:
			// Short of out, or past src: the bits past it are zeros.
			if o < len(out) || i > len(src) && (i-len(src))*8 > int(nb) {
				return io.ErrUnexpectedEOF
			}
			return nil
		}
		lx := uint(e>>4) & 15
		length := int(e>>8-symEnd) + int(acc&(1<<lx-1))
		acc >>= lx
		d := distDec[acc&(1<<5-1)]
		dx := uint(d>>4) & 15
		dist := int(d>>8) + int(acc>>5&(1<<dx-1))
		acc >>= 5 + dx
		nb -= lx + 5 + dx
		switch {
		case e>>8 == symBad || d == 0 || dist > o:
			return errBadCode
		case length > len(out)-o:
			return errLong
		}
		// The source may overlap the match; each copy then doubles what
		// has been repeated.
		for end, from := o+length, o-dist; o < end; {
			o += copy(out[o:end], out[from:o])
		}
	}
}

// inflater is a reusable standard-library DEFLATE decoder reading from its
// own byte reader, so a decompression allocates neither.
type inflater struct {
	src  bytes.Reader
	r    io.ReadCloser // a flate reader over src; also a flate.Resetter
	past [1]byte       // where a stream longer than it declared shows
}

var inflaters = sync.Pool{New: func() any {
	z := new(inflater)
	z.r = flate.NewReader(&z.src)
	return z
}}

// inflateAny decodes any DEFLATE stream into out, which it must fill
// exactly.
func inflateAny(out, src []byte) error {
	z := inflaters.Get().(*inflater)
	defer inflaters.Put(z)
	z.src.Reset(src)
	err := z.r.(flate.Resetter).Reset(&z.src, nil)
	if err == nil {
		_, err = io.ReadFull(z.r, out)
	}
	if err == nil {
		if k, rerr := z.r.Read(z.past[:]); k != 0 || rerr != io.EOF {
			err = errLong
		}
	}
	return err
}
