package bitmap

import (
	"reflect"
	"testing"
)

// decodeBits turns fuzz bytes into a bounded bit set. A byte with the
// high bit clear is a gap of that many bits before the next set bit; a
// byte with it set is a run of 2·(b&0x7f)+1 consecutive set bits, so
// all-ones words — one-fill runs — are a few bytes away.
func decodeBits(data []byte) []int {
	bits := make([]int, 0, len(data))
	cur := -1
	for _, b := range data {
		if b&0x80 == 0 {
			cur += int(b) + 1
			bits = append(bits, cur)
		} else {
			for k := 0; k <= 2*int(b&0x7f); k++ {
				cur++
				bits = append(bits, cur)
			}
		}
		if cur > 1<<20 {
			break
		}
	}
	return bits
}

// FuzzCompressedSet checks the one encoder and the one decoder against
// the dense reference: a random bit set over a random n goes through
// FromBits and ToCompressed, in a shuffled order, and comes back out
// through OrCompressed and AndNotFromCompressed.
func FuzzCompressedSet(f *testing.F) {
	f.Add([]byte{0, 0, 63, 1, 255}, uint16(0))
	f.Add([]byte{255, 255, 255, 255}, uint16(7))
	f.Add([]byte{}, uint16(100))
	f.Add([]byte{1, 0xa0, 2, 0xff, 0, 0xbf, 64}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, pad uint16) {
		bits := decodeBits(data)
		n := int(pad % 1024)
		if len(bits) > 0 {
			n += bits[len(bits)-1] + 1
		}
		// FromBits takes any order: reverse every other stretch of 5.
		for i := 0; i+5 <= len(bits); i += 10 {
			for a, b := i, i+4; a < b; a, b = a+1, b-1 {
				bits[a], bits[b] = bits[b], bits[a]
			}
		}
		want := dense(n, bits...)
		c := FromBits(n, bits...)
		checkDecoders(t, c, want)
		s := NewScratch(n)
		s.OrCompressed(c)
		if again := s.ToCompressed(); again.Cardinality() != c.Cardinality() || !reflect.DeepEqual(again.words, c.words) {
			t.Fatalf("re-encoding a decoded bitmap gave %x, want %x", again.words, c.words)
		}
	})
}
