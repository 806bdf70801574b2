package bitmap

import "math/bits"

// Dense is a plain uncompressed bitset with a fixed capacity: the
// reference the property tests hold Compressed and Scratch against.
type Dense struct {
	words []uint64
	n     int
}

// NewDense returns a dense bitset able to hold bits [0, n).
func NewDense(n int) *Dense {
	return &Dense{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (d *Dense) Len() int { return d.n }

// Set sets bit i.
func (d *Dense) Set(i int) { d.words[i>>6] |= 1 << uint(i&63) }

// test reports whether bit i is set.
func (d *Dense) test(i int) bool { return d.words[i>>6]&(1<<uint(i&63)) != 0 }

// Clear clears bit i.
func (d *Dense) Clear(i int) { d.words[i>>6] &^= 1 << uint(i&63) }

// Cardinality returns the number of set bits. It is O(n/64).
func (d *Dense) Cardinality() int {
	c := 0
	for _, w := range d.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit.
func (d *Dense) Reset() {
	for i := range d.words {
		d.words[i] = 0
	}
}

// AndNot sets d &^= e. The bitsets must have the same capacity.
func (d *Dense) AndNot(e *Dense) {
	for i, w := range e.words {
		d.words[i] &^= w
	}
}

// OrCompressed sets d |= c.
func (d *Dense) OrCompressed(c *Compressed) {
	c.iterate(func(idx int, w uint64) { d.words[idx] |= w })
}

// ForEach calls fn with every set bit in increasing order; fn returning
// false stops the iteration.
func (d *Dense) ForEach(fn func(bit int) bool) {
	for i, w := range d.words {
		base := i << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(base + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Bits returns the set bits in increasing order. The result is never
// nil, so it compares equal to scratchBits of the same set.
func (d *Dense) Bits() []int {
	out := make([]int, 0, 8)
	d.ForEach(func(b int) bool { out = append(out, b); return true })
	return out
}

// SizeBytes returns the memory footprint of the bit payload.
func (d *Dense) SizeBytes() int { return len(d.words) * 8 }

// Clone returns a deep copy of d.
func (d *Dense) Clone() *Dense {
	return &Dense{words: append([]uint64(nil), d.words...), n: d.n}
}
