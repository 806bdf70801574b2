package bitmap

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refOp applies the op on dense references.
func refOp(op binOp, n int, a, b []int) []int {
	da, db := NewDense(n), NewDense(n)
	for _, x := range a {
		da.Set(x)
	}
	for _, x := range b {
		db.Set(x)
	}
	switch op {
	case opOr:
		da.Or(db)
	case opAnd:
		da.And(db)
	default:
		da.AndNot(db)
	}
	return da.Bits()
}

func TestMergeOpsSmall(t *testing.T) {
	n := 300
	a := FromBits(n, 1, 2, 64, 65, 128, 200)
	b := FromBits(n, 2, 3, 65, 129, 200, 250)

	if got, want := Or(a, b).Bits(), refOp(opOr, n, a.Bits(), b.Bits()); !reflect.DeepEqual(got, want) {
		t.Fatalf("Or = %v, want %v", got, want)
	}
	if got, want := And(a, b).Bits(), refOp(opAnd, n, a.Bits(), b.Bits()); !reflect.DeepEqual(got, want) {
		t.Fatalf("And = %v, want %v", got, want)
	}
	if got, want := AndNot(a, b).Bits(), refOp(opAndNot, n, a.Bits(), b.Bits()); !reflect.DeepEqual(got, want) {
		t.Fatalf("AndNot = %v, want %v", got, want)
	}
}

func TestMergeOpsEmptyOperands(t *testing.T) {
	n := 200
	a := FromBits(n, 5, 100)
	e := New()
	if got := Or(a, e).Bits(); !reflect.DeepEqual(got, a.Bits()) {
		t.Fatalf("Or with empty = %v", got)
	}
	if got := Or(e, a).Bits(); !reflect.DeepEqual(got, a.Bits()) {
		t.Fatalf("Or empty-first = %v", got)
	}
	if got := And(a, e).Bits(); len(got) != 0 {
		t.Fatalf("And with empty = %v", got)
	}
	if got := AndNot(a, e).Bits(); !reflect.DeepEqual(got, a.Bits()) {
		t.Fatalf("AndNot with empty = %v", got)
	}
	if got := AndNot(e, a).Bits(); len(got) != 0 {
		t.Fatalf("AndNot empty-first = %v", got)
	}
}

func TestMergeOpsUnequalLengths(t *testing.T) {
	a := FromBits(100000, 99999)
	b := FromBits(100, 0, 1)
	got := Or(a, b)
	want := []int{0, 1, 99999}
	if !reflect.DeepEqual(got.Bits(), want) {
		t.Fatalf("Or unequal = %v, want %v", got.Bits(), want)
	}
	if got.Cardinality() != 3 || got.MaxBit() != 99999 {
		t.Fatalf("metadata: card=%d max=%d", got.Cardinality(), got.MaxBit())
	}
}

func TestMergeWithPendingWords(t *testing.T) {
	// Operands that still have unflushed pending words must merge
	// correctly.
	a := New()
	a.Set(3)
	a.Set(700) // pending word at index 10
	b := New()
	b.Set(700)
	b.Set(701)
	got := Or(a, b).Bits()
	want := []int{3, 700, 701}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Or with pending = %v, want %v", got, want)
	}
	if got := And(a, b).Bits(); !reflect.DeepEqual(got, []int{700}) {
		t.Fatalf("And with pending = %v", got)
	}
}

// quick.Check property: compressed ops agree with dense reference ops
// for arbitrary bit sets.
func TestMergeOpsQuick(t *testing.T) {
	type input struct {
		A, B []uint16
	}
	f := func(in input) bool {
		n := 1 << 16
		da, db := NewDense(n), NewDense(n)
		for _, x := range in.A {
			da.Set(int(x))
		}
		for _, x := range in.B {
			db.Set(int(x))
		}
		ca, cb := FromDense(da), FromDense(db)
		for _, op := range []binOp{opOr, opAnd, opAndNot} {
			ref := da.Clone()
			switch op {
			case opOr:
				ref.Or(db)
			case opAnd:
				ref.And(db)
			default:
				ref.AndNot(db)
			}
			got := merge(ca, cb, op)
			if !reflect.DeepEqual(got.Bits(), ref.Bits()) {
				return false
			}
			if got.Cardinality() != ref.Cardinality() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeFillRuns(t *testing.T) {
	// Two bitmaps with large aligned one-fills exercise the bulk fill
	// path of merge.
	n := 1 << 14
	da, db := NewDense(n), NewDense(n)
	for i := 0; i < 4096; i++ {
		da.Set(i)
	}
	for i := 2048; i < 8192; i++ {
		db.Set(i)
	}
	ca, cb := FromDense(da), FromDense(db)
	or := Or(ca, cb)
	if or.Cardinality() != 8192 {
		t.Fatalf("Or card = %d, want 8192", or.Cardinality())
	}
	and := And(ca, cb)
	if and.Cardinality() != 2048 {
		t.Fatalf("And card = %d, want 2048", and.Cardinality())
	}
	anot := AndNot(ca, cb)
	if anot.Cardinality() != 2048 {
		t.Fatalf("AndNot card = %d, want 2048", anot.Cardinality())
	}
	// Fill-fill merging must keep the result compact.
	if or.SizeBytes() > 64 {
		t.Fatalf("Or of fills not compact: %d bytes", or.SizeBytes())
	}
}

func BenchmarkOrCompressedSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 20
	bms := make([]*Compressed, 64)
	for i := range bms {
		d := NewDense(n)
		for j := 0; j < 200; j++ {
			d.Set(rng.Intn(n))
		}
		bms[i] = FromDense(d)
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
