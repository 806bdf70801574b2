// Package bitmap implements the bitset machinery behind BIGrid: the
// EWAH-style 64-bit word-aligned compressed bitmap that holds each
// memoised b^adj(c) (run-length encoded fills plus literal words), and
// an epoch-versioned "scratch" accumulator used for the per-object
// temporary bitsets of the lower-bounding, upper-bounding and
// verification phases. A Compressed is written once, by
// Scratch.ToCompressed, and read by one decoder, iterate, behind
// Scratch.OrCompressed and Scratch.AndNotFromCompressed.
//
// The compressed format follows the word-aligned hybrid of Lemire,
// Kaser and Aouiche (EWAH): the payload is a sequence of marker words,
// each followed by zero or more literal words. A marker encodes
//
//	bit 0      : the fill bit (value of the run words)
//	bits 1-32  : run length, in 64-bit words
//	bits 33-63 : number of literal words following the marker
//
// Runs of identical words (all-zero for sparse space, all-one for dense
// space) therefore cost one word regardless of length, which is exactly
// the skew the paper exploits (§III-A).
package bitmap

const (
	maxRunLen = 1<<32 - 1 // run length field is 32 bits
	maxLitLen = 1<<31 - 1 // literal count field is 31 bits
)

func makeMarker(fill bool, runLen, lit uint64) uint64 {
	m := runLen<<1 | lit<<33
	if fill {
		m |= 1
	}
	return m
}

func markerFields(m uint64) (fill bool, runLen, lit uint64) {
	return m&1 == 1, (m >> 1) & maxRunLen, m >> 33
}

// Compressed is an immutable EWAH-compressed bitmap, built by
// Scratch.ToCompressed. The zero value is the empty bitmap.
type Compressed struct {
	words []uint64 // marker + literal words
	card  int      // number of set bits
}

// Cardinality returns the number of set bits. It is O(1).
func (c *Compressed) Cardinality() int { return c.card }

// SizeBytes returns the in-memory payload size of the compressed
// encoding in bytes (markers and literals).
func (c *Compressed) SizeBytes() int { return len(c.words) * 8 }

// iterate calls fn for every non-zero logical word in order, with its
// logical index. Zero runs are skipped in O(1).
func (c *Compressed) iterate(fn func(idx int, w uint64)) {
	idx := 0
	pos := 0
	for pos < len(c.words) {
		fill, runLen, lit := markerFields(c.words[pos])
		pos++
		if fill {
			for k := 0; k < int(runLen); k++ {
				fn(idx+k, ^uint64(0))
			}
		}
		idx += int(runLen)
		for k := 0; k < int(lit); k++ {
			fn(idx+k, c.words[pos+k])
		}
		idx += int(lit)
		pos += int(lit)
	}
}

// FromBits builds a compressed bitmap over [0, n) from a list of bit
// positions in any order, repeats allowed. It encodes through a
// Scratch, so it gives the encoding the engine's b^adj unions have.
func FromBits(n int, bitsSet ...int) *Compressed {
	s := NewScratch(n)
	for _, b := range bitsSet {
		s.Set(b)
	}
	return s.ToCompressed()
}
