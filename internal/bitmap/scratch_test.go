package bitmap

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestScratchBasic(t *testing.T) {
	s := NewScratch(1000)
	s.Set(1)
	s.Set(64)
	s.Set(999)
	if s.Cardinality() != 3 {
		t.Fatalf("card = %d, want 3", s.Cardinality())
	}
	if !s.Test(64) || s.Test(63) {
		t.Fatal("Test wrong")
	}
	s.Clear(64)
	if s.Cardinality() != 2 || s.Test(64) {
		t.Fatal("Clear failed")
	}
	if got := scratchBits(s); !reflect.DeepEqual(got, []int{1, 999}) {
		t.Fatalf("Bits = %v", got)
	}
}

func TestScratchResetIsCheapAndComplete(t *testing.T) {
	s := NewScratch(256)
	for i := 0; i < 256; i++ {
		s.Set(i)
	}
	s.Reset()
	if s.Cardinality() != 0 {
		t.Fatalf("card after Reset = %d", s.Cardinality())
	}
	for i := 0; i < 256; i++ {
		if s.Test(i) {
			t.Fatalf("bit %d survived Reset", i)
		}
	}
	s.Set(10)
	if got := scratchBits(s); !reflect.DeepEqual(got, []int{10}) {
		t.Fatalf("Bits after reuse = %v", got)
	}
}

func TestScratchEpochWrap(t *testing.T) {
	s := NewScratch(128)
	s.Set(5)
	s.epoch = ^uint32(0) // force wrap on next Reset
	s.Reset()
	if s.Test(5) || s.Cardinality() != 0 {
		t.Fatal("bit visible after epoch wrap")
	}
	s.Set(7)
	if !s.Test(7) {
		t.Fatal("Set after wrap failed")
	}
}

// TestScratchNextSet checks NextSet against a scan of Test from every
// start, on random sets that straddle word boundaries, after a Reset
// (stale words read as zero) and on the empty set.
func TestScratchNextSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 300
	s := NewScratch(n)
	for round := 0; round < 50; round++ {
		s.Reset()
		for k := rng.Intn(20); k > 0; k-- {
			s.Set(rng.Intn(n))
		}
		if round%5 == 0 {
			s.Clear(rng.Intn(n))
		}
		for i := 0; i <= n+64; i++ {
			want := -1
			for j := i; j < n; j++ {
				if s.Test(j) {
					want = j
					break
				}
			}
			if got := s.NextSet(i); got != want {
				t.Fatalf("round %d: NextSet(%d) = %d, want %d", round, i, got, want)
			}
		}
	}
	s.Reset()
	if got := s.NextSet(0); got != -1 {
		t.Fatalf("NextSet on an empty set = %d", got)
	}
}

func TestScratchOrCompressed(t *testing.T) {
	n := 2048
	s := NewScratch(n)
	s.Set(3)
	c := FromBits(n, 3, 100, 2000)
	s.OrCompressed(c)
	if got := scratchBits(s); !reflect.DeepEqual(got, []int{3, 100, 2000}) {
		t.Fatalf("Bits = %v", got)
	}
	if s.Cardinality() != 3 {
		t.Fatalf("card = %d", s.Cardinality())
	}
}

// TestScratchOrIDs: a run ORs in as Set of each id does — sorted (a
// cell's b(c)) or not (adjacent cells' runs back to back), onto existing
// bits, duplicates included — and the pre-sized ToCompressed of the
// result round-trips whatever mix of gaps, literals and full words the
// ids leave.
func TestScratchOrIDs(t *testing.T) {
	f := func(seed int64, full bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3000)
		s, want := NewScratch(n), NewScratch(n)
		s.Set(rng.Intn(n))
		want.OrScratch(s)
		for run := 0; run < 4; run++ {
			ids := make([]int32, rng.Intn(200))
			for i := range ids {
				ids[i] = int32(rng.Intn(n))
			}
			if full && n >= 256 {
				// Two all-ones words after a gap, then a literal.
				for i := 128; i < 258 && i < n; i++ {
					ids = append(ids, int32(i))
				}
			}
			if run%2 == 0 {
				sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			}
			s.OrIDs(ids)
			for _, id := range ids {
				want.Set(int(id))
			}
		}
		c := s.ToCompressed()
		return s.Cardinality() == want.Cardinality() && reflect.DeepEqual(scratchBits(s), scratchBits(want)) &&
			c.Cardinality() == want.Cardinality() && reflect.DeepEqual(compressedBits(c, n), scratchBits(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScratchOrScratch(t *testing.T) {
	n := 512
	a, b := NewScratch(n), NewScratch(n)
	a.Set(1)
	a.Set(200)
	b.Set(200)
	b.Set(300)
	a.OrScratch(b)
	if got := scratchBits(a); !reflect.DeepEqual(got, []int{1, 200, 300}) {
		t.Fatalf("Bits = %v", got)
	}
}

func TestScratchAndNotFromCompressed(t *testing.T) {
	n := 512
	sub := NewScratch(n)
	sub.Set(10)
	sub.Set(20)
	c := FromBits(n, 10, 20, 30, 400)
	out := NewScratch(n)
	out.Set(499) // stale content must be replaced
	out.AndNotFromCompressed(c, sub)
	if got := scratchBits(out); !reflect.DeepEqual(got, []int{30, 400}) {
		t.Fatalf("Bits = %v", got)
	}
	if out.Cardinality() != 2 {
		t.Fatalf("card = %d", out.Cardinality())
	}
}

func TestScratchToCompressed(t *testing.T) {
	n := 4096
	s := NewScratch(n)
	for i := 100; i < 300; i++ {
		s.Set(i)
	}
	s.Set(4000)
	c := s.ToCompressed()
	if !reflect.DeepEqual(compressedBits(c, n), scratchBits(s)) {
		t.Fatal("ToCompressed bits mismatch")
	}
	if c.Cardinality() != s.Cardinality() {
		t.Fatalf("card = %d, want %d", c.Cardinality(), s.Cardinality())
	}
}

// Property: a random interleaving of Set/Clear tracked in parallel on a
// Dense reference always agrees.
func TestScratchQuickAgainstDense(t *testing.T) {
	f := func(ops []uint16, clears []bool) bool {
		n := 1 << 16
		s := NewScratch(n)
		d := NewDense(n)
		for i, o := range ops {
			bit := int(o)
			if i < len(clears) && clears[i] {
				s.Clear(bit)
				d.Clear(bit)
			} else {
				s.Set(bit)
				d.Set(bit)
			}
		}
		return s.Cardinality() == d.Cardinality() && reflect.DeepEqual(scratchBits(s), d.Bits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestScratchReuseAcrossManyEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 4096
	s := NewScratch(n)
	for epoch := 0; epoch < 200; epoch++ {
		s.Reset()
		d := NewDense(n)
		for j := 0; j < 50; j++ {
			b := rng.Intn(n)
			s.Set(b)
			d.Set(b)
		}
		if s.Cardinality() != d.Cardinality() {
			t.Fatalf("epoch %d: card %d vs %d", epoch, s.Cardinality(), d.Cardinality())
		}
		if !reflect.DeepEqual(scratchBits(s), d.Bits()) {
			t.Fatalf("epoch %d: bits mismatch", epoch)
		}
	}
}

func TestDenseOps(t *testing.T) {
	d := NewDense(200)
	d.Set(0)
	d.Set(199)
	if d.Len() != 200 || d.Cardinality() != 2 {
		t.Fatalf("Len/Card wrong: %d %d", d.Len(), d.Cardinality())
	}
	e := d.Clone()
	e.Clear(0)
	if d.Cardinality() != 2 || e.Cardinality() != 1 {
		t.Fatal("Clone not independent")
	}
	d.Reset()
	if d.Cardinality() != 0 {
		t.Fatal("Reset failed")
	}
	d.OrCompressed(FromBits(200, 7, 63, 64))
	if got := d.Bits(); !reflect.DeepEqual(got, []int{7, 63, 64}) {
		t.Fatalf("OrCompressed = %v", got)
	}
	visited := 0
	d.ForEach(func(int) bool { visited++; return visited < 2 })
	if visited != 2 {
		t.Fatalf("ForEach early stop visited %d", visited)
	}
}

func BenchmarkOrCompressedSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 20
	bms := make([]*Compressed, 64)
	for i := range bms {
		bits := make([]int, 200)
		for j := range bits {
			bits[j] = rng.Intn(n)
		}
		bms[i] = FromBits(n, bits...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScratch(n)
		for _, bm := range bms {
			s.OrCompressed(bm)
		}
		_ = s.Cardinality()
	}
}
