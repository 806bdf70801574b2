package bitmap

import "math/bits"

// segDecoder walks a compressed bitmap as a stream of 64-bit words,
// exposing fill runs so that run-aware consumers can process them in
// bulk. Each marker contributes a fill phase (runLen identical words)
// followed by a literal phase; an unflushed pending word is served
// last, preceded by its zero gap.
type segDecoder struct {
	c   *Compressed
	pos int // next unread index in c.words

	fill    bool   // current phase is a fill
	fillVal uint64 // 0 or ^0 when fill
	left    int    // words left in the current phase
	litPos  int    // index of next literal word; -1 means serve c.pending

	litLeft      int // literals of the current marker still to be served
	pendingState int // 0 = not reached, 1 = gap served, 2 = done
}

func newSegDecoder(c *Compressed) *segDecoder {
	d := &segDecoder{c: c}
	d.advance()
	return d
}

// done reports whether the stream is exhausted.
func (d *segDecoder) done() bool { return d.left == 0 }

// advance loads the next non-empty phase.
func (d *segDecoder) advance() {
	for d.left == 0 {
		if d.litLeft > 0 {
			d.fill = false
			d.left = d.litLeft
			d.litLeft = 0
			return
		}
		if d.pos < len(d.c.words) {
			fill, runLen, lit := markerFields(d.c.words[d.pos])
			d.pos++
			d.litPos = d.pos
			d.pos += int(lit)
			if runLen > 0 {
				d.fill = true
				d.fillVal = 0
				if fill {
					d.fillVal = ^uint64(0)
				}
				d.left = int(runLen)
				d.litLeft = int(lit)
				return
			}
			if lit > 0 {
				d.fill = false
				d.left = int(lit)
				return
			}
			continue
		}
		switch d.pendingState {
		case 0:
			d.pendingState = 1
			if d.c.pendingIdx < 0 {
				d.pendingState = 2
				return
			}
			if gap := d.c.pendingIdx - d.c.fullWords; gap > 0 {
				d.fill = true
				d.fillVal = 0
				d.left = gap
				return
			}
		case 2:
			return
		}
		d.pendingState = 2
		d.fill = false
		d.left = 1
		d.litPos = -1
		return
	}
}

// next returns the next word. The caller must ensure !done().
func (d *segDecoder) next() uint64 {
	var w uint64
	switch {
	case d.fill:
		w = d.fillVal
	case d.litPos < 0:
		w = d.c.pending
	default:
		w = d.c.words[d.litPos]
		d.litPos++
	}
	d.left--
	if d.left == 0 {
		d.advance()
	}
	return w
}

// fillRun reports whether the decoder is inside a fill phase and, if
// so, its value and remaining length.
func (d *segDecoder) fillRun() (val uint64, n int, ok bool) {
	if d.left > 0 && d.fill {
		return d.fillVal, d.left, true
	}
	return 0, 0, false
}

// skip consumes n words from the current fill phase.
func (d *segDecoder) skip(n int) {
	d.left -= n
	if d.left == 0 {
		d.advance()
	}
}

type binOp int

const (
	opOr binOp = iota
	opAnd
	opAndNot
)

func (op binOp) apply(a, b uint64) uint64 {
	switch op {
	case opOr:
		return a | b
	case opAnd:
		return a & b
	default:
		return a &^ b
	}
}

// merge computes "a op b" as a new compressed bitmap, collapsing
// aligned fill runs in bulk.
func merge(a, b *Compressed, op binOp) *Compressed {
	out := New()
	da, db := newSegDecoder(a), newSegDecoder(b)
	emit := func(w uint64) {
		out.appendWord(w)
		out.card += bits.OnesCount64(w)
	}
	for !da.done() && !db.done() {
		va, na, fa := da.fillRun()
		vb, nb, fb := db.fillRun()
		if fa && fb {
			n := na
			if nb < n {
				n = nb
			}
			switch w := op.apply(va, vb); w {
			case 0:
				out.appendFill(false, uint64(n))
			case ^uint64(0):
				out.appendFill(true, uint64(n))
				out.card += n * 64
			default:
				for k := 0; k < n; k++ {
					emit(w)
				}
			}
			da.skip(n)
			db.skip(n)
			continue
		}
		emit(op.apply(da.next(), db.next()))
	}
	for !da.done() {
		if w := op.apply(da.next(), 0); w == 0 {
			out.appendFill(false, 1)
		} else {
			emit(w)
		}
	}
	for !db.done() {
		if w := op.apply(0, db.next()); w == 0 {
			out.appendFill(false, 1)
		} else {
			emit(w)
		}
	}
	out.recomputeLastBit()
	return out
}

// recomputeLastBit fixes lastBit after bulk construction by scanning
// the encoded words.
func (c *Compressed) recomputeLastBit() {
	last := -1
	c.iterate(func(idx int, w uint64) bool {
		if w != 0 {
			last = idx<<6 + 63 - bits.LeadingZeros64(w)
		}
		return true
	})
	c.lastBit = last
}

// Or returns a | b as a new compressed bitmap.
func Or(a, b *Compressed) *Compressed { return merge(a, b, opOr) }

// And returns a & b as a new compressed bitmap.
func And(a, b *Compressed) *Compressed { return merge(a, b, opAnd) }

// AndNot returns a &^ b as a new compressed bitmap.
func AndNot(a, b *Compressed) *Compressed { return merge(a, b, opAndNot) }
