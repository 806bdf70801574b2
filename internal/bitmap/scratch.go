package bitmap

import "math/bits"

// Scratch is a dense bitset with O(1) reset, used for the per-object
// temporary bitsets b(o_i) that the bounding and verification phases
// create for every object (Algorithms 4-6). A naive dense bitset would
// spend O(n/64) zeroing per object — O(n²/64) per query. Scratch
// versions every word with an epoch stamp instead: Reset bumps the
// epoch and all stale words read as zero.
//
// Scratch additionally maintains its cardinality incrementally so that
// the |b(o_i)| reads in the inner loops are O(1).
type Scratch struct {
	words  []uint64
	stamps []uint32
	epoch  uint32
	card   int
	// maxWord is the highest word index written this epoch, bounding
	// iteration. -1 when nothing was written.
	maxWord int
}

// NewScratch returns a scratch bitset able to hold bits [0, n).
func NewScratch(n int) *Scratch {
	return &Scratch{
		words:   make([]uint64, (n+63)/64),
		stamps:  make([]uint32, (n+63)/64),
		epoch:   1,
		maxWord: -1,
	}
}

// Reset clears the bitset in O(1).
func (s *Scratch) Reset() {
	s.epoch++
	s.card = 0
	s.maxWord = -1
	if s.epoch == 0 { // wrapped: stamps may alias, hard-reset
		for i := range s.stamps {
			s.stamps[i] = 0
		}
		s.epoch = 1
	}
}

// word returns the current value of word i.
func (s *Scratch) word(i int) uint64 {
	if s.stamps[i] != s.epoch {
		return 0
	}
	return s.words[i]
}

// setWord overwrites word i with w, maintaining cardinality.
func (s *Scratch) setWord(i int, w uint64) {
	old := uint64(0)
	if s.stamps[i] == s.epoch {
		old = s.words[i]
	} else {
		s.stamps[i] = s.epoch
	}
	s.words[i] = w
	s.card += bits.OnesCount64(w) - bits.OnesCount64(old)
	if i > s.maxWord {
		s.maxWord = i
	}
}

// Set sets bit i.
func (s *Scratch) Set(i int) {
	w := i >> 6
	s.setWord(w, s.word(w)|1<<uint(i&63))
}

// Clear clears bit i.
func (s *Scratch) Clear(i int) {
	w := i >> 6
	s.setWord(w, s.word(w)&^(1<<uint(i&63)))
}

// Test reports whether bit i is set.
func (s *Scratch) Test(i int) bool {
	return s.word(i>>6)&(1<<uint(i&63)) != 0
}

// Cardinality returns the number of set bits in O(1).
func (s *Scratch) Cardinality() int { return s.card }

// OrCompressed sets s |= c. Zero runs of c are skipped without touching
// the accumulator.
func (s *Scratch) OrCompressed(c *Compressed) {
	c.iterate(func(idx int, w uint64) {
		old := s.word(idx)
		if nw := old | w; nw != old {
			s.setWord(idx, nw)
		}
	})
}

// OrIDs sets the bit of every id. Consecutive ids that share a word —
// a sorted run does throughout — cost one accumulator update between
// them.
func (s *Scratch) OrIDs(ids []int32) {
	for i := 0; i < len(ids); {
		idx := int(ids[i]) >> 6
		w := uint64(0)
		for ; i < len(ids) && int(ids[i])>>6 == idx; i++ {
			w |= 1 << uint(ids[i]&63)
		}
		old := s.word(idx)
		if nw := old | w; nw != old {
			s.setWord(idx, nw)
		}
	}
}

// OrScratch sets s |= t.
func (s *Scratch) OrScratch(t *Scratch) {
	for i := 0; i <= t.maxWord; i++ {
		w := t.word(i)
		if w == 0 {
			continue
		}
		s.setWord(i, s.word(i)|w)
	}
}

// AndScratch sets s &= t. Used by object-partitioned parallel
// verification to restrict a worker's candidate mask to the objects it
// owns.
func (s *Scratch) AndScratch(t *Scratch) {
	for i := 0; i <= s.maxWord; i++ {
		w := s.word(i)
		if w == 0 {
			continue
		}
		if nw := w & t.word(i); nw != w {
			s.setWord(i, nw)
		}
	}
}

// AndNotFromCompressed sets s = c &^ sub, replacing s's current
// contents. This is the "b ← b^adj(c) − b(o_i)" step of verification
// (Algorithm 6, line 10).
func (s *Scratch) AndNotFromCompressed(c *Compressed, sub *Scratch) {
	s.Reset()
	c.iterate(func(idx int, w uint64) {
		if masked := w &^ sub.word(idx); masked != 0 {
			s.setWord(idx, masked)
		}
	})
}

// ForEach calls fn with every set bit in increasing order; fn returning
// false stops the iteration.
func (s *Scratch) ForEach(fn func(bit int) bool) {
	for i := 0; i <= s.maxWord; i++ {
		w := s.word(i)
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

// NextSet returns the lowest set bit at or above i ≥ 0, or -1 when
// there is none.
func (s *Scratch) NextSet(i int) int {
	wi := i >> 6
	if wi > s.maxWord {
		return -1
	}
	if w := s.word(wi) >> uint(i&63); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi <= s.maxWord; wi++ {
		if w := s.word(wi); w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// ToCompressed compresses the current contents: the one EWAH encoder.
// Zero gaps become zero-fill markers, all-ones words extend a one-fill
// run, and every other word is a literal counted by the marker before
// it.
func (s *Scratch) ToCompressed() *Compressed {
	// Size the encoding first — a word per non-zero word plus a marker
	// wherever one follows a gap — so it is built in one allocation.
	need, gap := 0, true
	for i := 0; i <= s.maxWord; i++ {
		if s.word(i) == 0 {
			gap = true
			continue
		}
		need++
		if gap {
			need++
			gap = false
		}
	}
	c := &Compressed{words: make([]uint64, 0, need), card: s.card}
	// last is the index in c.words of the marker being extended, -1
	// before the first.
	last, zeros := -1, uint64(0)
	for i := 0; i <= s.maxWord; i++ {
		w := s.word(i)
		if w == 0 {
			zeros++
			continue
		}
		if zeros > 0 {
			last = c.appendFill(last, false, zeros)
			zeros = 0
		}
		if w == ^uint64(0) {
			last = c.appendFill(last, true, 1)
		} else {
			last = c.appendLiteral(last, w)
		}
	}
	return c
}

// appendFill encodes n fill words, extending the marker at last while
// it has no literals and the same fill bit, and returns the index of
// the marker now being extended.
func (c *Compressed) appendFill(last int, fill bool, n uint64) int {
	for n > 0 {
		if last >= 0 {
			if f, runLen, lit := markerFields(c.words[last]); lit == 0 && f == fill && runLen < maxRunLen {
				take := min(n, maxRunLen-runLen)
				c.words[last] = makeMarker(fill, runLen+take, 0)
				n -= take
				continue
			}
		}
		take := min(n, maxRunLen)
		c.words = append(c.words, makeMarker(fill, take, 0))
		last = len(c.words) - 1
		n -= take
	}
	return last
}

// appendLiteral encodes one literal word after the marker at last, or
// after a new marker when last has no room, and returns the index of
// the marker now being extended.
func (c *Compressed) appendLiteral(last int, w uint64) int {
	if last >= 0 {
		if f, runLen, lit := markerFields(c.words[last]); lit < maxLitLen {
			c.words[last] = makeMarker(f, runLen, lit+1)
			c.words = append(c.words, w)
			return last
		}
	}
	c.words = append(c.words, makeMarker(false, 0, 1), w)
	return len(c.words) - 2
}
