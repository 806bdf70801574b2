package bitmap

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// scratchBits returns the set bits of s in increasing order, never nil.
func scratchBits(s *Scratch) []int {
	out := make([]int, 0, 8)
	s.ForEach(func(b int) bool { out = append(out, b); return true })
	return out
}

// compressedBits decodes c, a bitmap over [0, n), through OrCompressed.
func compressedBits(c *Compressed, n int) []int {
	s := NewScratch(n)
	s.OrCompressed(c)
	return scratchBits(s)
}

// checkDecoders holds c, a bitmap over [0, n), against its dense
// reference want through both decoders: OrCompressed onto an empty and
// onto a non-empty accumulator, and AndNotFromCompressed against a
// subtrahend that takes out every third bit of want and one bit want
// does not have.
func checkDecoders(t *testing.T, c *Compressed, want *Dense) {
	t.Helper()
	n := want.Len()
	if c.Cardinality() != want.Cardinality() {
		t.Fatalf("Cardinality = %d, want %d", c.Cardinality(), want.Cardinality())
	}
	s := NewScratch(n)
	s.OrCompressed(c)
	if got := scratchBits(s); !reflect.DeepEqual(got, want.Bits()) || s.Cardinality() != want.Cardinality() {
		t.Fatalf("OrCompressed = %v, want %v", got, want.Bits())
	}
	if n > 0 {
		s.Reset()
		s.Set(n - 1)
		s.OrCompressed(c)
		union := want.Clone()
		union.Set(n - 1)
		if got := scratchBits(s); !reflect.DeepEqual(got, union.Bits()) || s.Cardinality() != union.Cardinality() {
			t.Fatalf("OrCompressed onto {%d} = %v, want %v", n-1, got, union.Bits())
		}
	}
	sub, subRef := NewScratch(n), NewDense(n)
	i := 0
	want.ForEach(func(b int) bool {
		if i%3 == 0 {
			sub.Set(b)
			subRef.Set(b)
		}
		i++
		return true
	})
	if n > 0 && !want.test(0) {
		sub.Set(0)
		subRef.Set(0)
	}
	diff := want.Clone()
	diff.AndNot(subRef)
	out := NewScratch(n)
	if n > 0 {
		out.Set(n / 2) // stale content must be replaced
	}
	out.AndNotFromCompressed(c, sub)
	if got := scratchBits(out); !reflect.DeepEqual(got, diff.Bits()) || out.Cardinality() != diff.Cardinality() {
		t.Fatalf("AndNotFromCompressed = %v, want %v", got, diff.Bits())
	}
}

// dense returns the reference bitset over [0, n) holding bits.
func dense(n int, bits ...int) *Dense {
	d := NewDense(n)
	for _, b := range bits {
		d.Set(b)
	}
	return d
}

func TestCompressedEmpty(t *testing.T) {
	for _, c := range []*Compressed{FromBits(0), FromBits(1000), NewScratch(1000).ToCompressed()} {
		if c.Cardinality() != 0 || c.SizeBytes() != 0 {
			t.Fatalf("empty bitmap: card=%d, %d bytes", c.Cardinality(), c.SizeBytes())
		}
		checkDecoders(t, c, NewDense(1000))
	}
}

// TestCompressedZeroValue: the zero Compressed is the empty bitmap.
func TestCompressedZeroValue(t *testing.T) {
	var c Compressed
	if c.Cardinality() != 0 || c.SizeBytes() != 0 {
		t.Fatalf("zero value: card=%d, %d bytes", c.Cardinality(), c.SizeBytes())
	}
	checkDecoders(t, &c, NewDense(300))
}

func TestCompressedSetBasic(t *testing.T) {
	in := []int{0, 1, 63, 64, 65, 127, 128, 1000, 1001, 70000}
	c := FromBits(70001, in...)
	if got := compressedBits(c, 70001); !reflect.DeepEqual(got, in) {
		t.Fatalf("bits = %v, want %v", got, in)
	}
	checkDecoders(t, c, dense(70001, in...))
}

// TestCompressedSetIdempotent: FromBits takes bits in any order and
// repeated bits count once, so every ordering of one set encodes to the
// same words.
func TestCompressedSetIdempotent(t *testing.T) {
	want := FromBits(200, 10, 70, 130)
	for _, in := range [][]int{{10, 10, 10, 70, 130}, {130, 70, 10}, {70, 130, 10, 130, 70}} {
		c := FromBits(200, in...)
		if c.Cardinality() != 3 || !reflect.DeepEqual(c.words, want.words) {
			t.Fatalf("FromBits(%v): card %d, words %x, want 3 and %x", in, c.Cardinality(), c.words, want.words)
		}
	}
}

func TestCompressedLongRuns(t *testing.T) {
	// A single bit far out forces a long zero run.
	c := FromBits(1<<20+1, 1<<20)
	if c.SizeBytes() >= (1<<20)/8 {
		t.Fatalf("sparse bitmap not compressed: %d bytes", c.SizeBytes())
	}
	checkDecoders(t, c, dense(1<<20+1, 1<<20))

	// 32 full one-words after a gap: a zero fill, then one one-fill.
	d := NewDense(4096)
	var in []int
	for i := 256; i < 2304; i++ {
		d.Set(i)
		in = append(in, i)
	}
	cc := FromBits(4096, in...)
	if cc.Cardinality() != 2048 {
		t.Fatalf("cardinality = %d, want 2048", cc.Cardinality())
	}
	if cc.SizeBytes() != 16 {
		t.Fatalf("a gap and a one-run take %d bytes, want two markers", cc.SizeBytes())
	}
	checkDecoders(t, cc, d)
}

// TestCompressedEdgeCases holds the encoder's boundary shapes against
// the dense reference through both decoders.
func TestCompressedEdgeCases(t *testing.T) {
	ones := func(from, to int) []int {
		var out []int
		for i := from; i < to; i++ {
			out = append(out, i)
		}
		return out
	}
	cases := []struct {
		name  string
		n     int
		bits  []int
		words int // encoded words
	}{
		{"lone bit at n-1", 1000, []int{999}, 2},
		{"lone bit at n-1, word-aligned n", 1024, []int{1023}, 2},
		{"one all-ones word", 64, ones(0, 64), 1},
		// ≥ 64 consecutive objects interacting, as in a Neuron b^adj.
		{"fill-true run", 1000, ones(64, 512), 2},
		{"fill-true run to the end", 512, ones(0, 512), 1},
		{"literals with no gap between them", 256, []int{1, 65, 129, 193}, 5},
		{"literal right after a one-run", 300, append(ones(0, 128), 130), 2},
		{"one-run right after a literal", 300, append([]int{5}, ones(64, 192)...), 3},
		{"one-run, gap, one-run", 1000, append(ones(0, 64), ones(640, 768)...), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := FromBits(tc.n, tc.bits...)
			if len(c.words) != tc.words {
				t.Fatalf("encoded in %d words (%x), want %d", len(c.words), c.words, tc.words)
			}
			checkDecoders(t, c, dense(tc.n, tc.bits...))
		})
	}
}

// TestCompressedClone: ToCompressed copies the bits out. The pooled
// scratch an adjacency union is built in goes on to the next union, so
// writing, resetting or reusing it must not touch a bitmap published
// from it.
func TestCompressedClone(t *testing.T) {
	s := NewScratch(300)
	s.Set(3)
	s.Set(100)
	c := s.ToCompressed()
	s.Set(200)
	s.Clear(3)
	if c.Cardinality() != 2 || s.Cardinality() != 2 {
		t.Fatalf("copy not independent: %d, %d", c.Cardinality(), s.Cardinality())
	}
	checkDecoders(t, c, dense(300, 3, 100))
}

// TestCompressedReset: after a Reset the scratch encodes only what was
// set since, and the bitmap encoded before is unchanged.
func TestCompressedReset(t *testing.T) {
	s := NewScratch(1000)
	s.Set(5)
	s.Set(500)
	before := s.ToCompressed()
	s.Reset()
	if c := s.ToCompressed(); c.Cardinality() != 0 || c.SizeBytes() != 0 {
		t.Fatal("Reset did not empty the encoding")
	}
	s.Set(2)
	checkDecoders(t, s.ToCompressed(), dense(1000, 2))
	checkDecoders(t, before, dense(1000, 5, 500))
}

func TestForEachEarlyStop(t *testing.T) {
	s := NewScratch(100)
	for i := 0; i < 100; i += 3 {
		s.Set(i)
	}
	count := 0
	s.ForEach(func(int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("ForEach visited %d bits, want 5", count)
	}
}

// randomSortedBits draws k distinct sorted bit positions below n.
func randomSortedBits(rng *rand.Rand, n, k int) []int {
	seen := map[int]bool{}
	for len(seen) < k {
		seen[rng.Intn(n)] = true
	}
	out := make([]int, 0, k)
	for b := range seen {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

func TestCompressedRandomAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 64 + rng.Intn(5000)
		bits := randomSortedBits(rng, n, rng.Intn(n))
		rng.Shuffle(len(bits), func(i, j int) { bits[i], bits[j] = bits[j], bits[i] })
		checkDecoders(t, FromBits(n, bits...), dense(n, bits...))
	}
}

func TestCompressionRatioOnSkewedData(t *testing.T) {
	// Simulates a dense cell in a skewed dataset: a contiguous block of
	// objects present, everything else absent. Compression must beat
	// the dense encoding by a wide margin (paper footnote 4 reports
	// 80-99.9%).
	n := 100000
	d := NewDense(n)
	var in []int
	for i := 5000; i < 5600; i++ {
		d.Set(i)
		in = append(in, i)
	}
	c := FromBits(n, in...)
	ratio := 1 - float64(c.SizeBytes())/float64(d.SizeBytes())
	if ratio < 0.8 {
		t.Fatalf("compression ratio %.3f < 0.8", ratio)
	}
}
