package bitmap

import (
	"reflect"
	"testing"
)

// decodeBits turns fuzz bytes into a bounded ascending bit sequence;
// each byte is a gap from the previous bit.
func decodeBits(data []byte) []int {
	bits := make([]int, 0, len(data))
	cur := -1
	for _, b := range data {
		cur += int(b) + 1
		bits = append(bits, cur)
		if cur > 1<<20 {
			break
		}
	}
	return bits
}

// FuzzCompressedSet checks the EWAH append path against the dense
// reference for arbitrary ascending bit sequences.
func FuzzCompressedSet(f *testing.F) {
	f.Add([]byte{0, 0, 63, 1, 255})
	f.Add([]byte{255, 255, 255, 255})
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		bits := decodeBits(data)
		c := New()
		maxBit := 0
		for _, b := range bits {
			c.Set(b)
			if b > maxBit {
				maxBit = b
			}
		}
		d := NewDense(maxBit + 1)
		for _, b := range bits {
			d.Set(b)
		}
		if c.Cardinality() != d.Cardinality() {
			t.Fatalf("card %d vs %d", c.Cardinality(), d.Cardinality())
		}
		if !reflect.DeepEqual(c.Bits(), d.Bits()) {
			t.Fatal("bits mismatch")
		}
		// Marshal round-trip must preserve everything.
		payload, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Compressed
		if err := back.UnmarshalBinary(payload); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Bits(), c.Bits()) {
			t.Fatal("round-trip mismatch")
		}
	})
}

// FuzzMergeOps checks the three compressed merges against dense
// references.
func FuzzMergeOps(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{255, 0, 255}, []byte{0, 255, 0})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		bitsA, bitsB := decodeBits(rawA), decodeBits(rawB)
		n := 2
		for _, b := range append(append([]int{}, bitsA...), bitsB...) {
			if b >= n {
				n = b + 1
			}
		}
		da, db := NewDense(n), NewDense(n)
		for _, b := range bitsA {
			da.Set(b)
		}
		for _, b := range bitsB {
			db.Set(b)
		}
		ca, cb := FromDense(da), FromDense(db)

		check := func(name string, got []int, ref func(x, y *Dense)) {
			want := da.Clone()
			ref(want, db)
			if !reflect.DeepEqual(got, want.Bits()) {
				t.Fatalf("%s mismatch", name)
			}
		}
		check("ewah-or", Or(ca, cb).Bits(), (*Dense).Or)
		check("ewah-and", And(ca, cb).Bits(), (*Dense).And)
		check("ewah-andnot", AndNot(ca, cb).Bits(), (*Dense).AndNot)
	})
}

// FuzzUnmarshal throws arbitrary bytes at the decoder: it must reject
// or accept without panicking, and anything accepted must re-encode to
// equivalent content.
func FuzzUnmarshal(f *testing.F) {
	seed, _ := FromBits(100, 1, 50, 99).MarshalBinary()
	f.Add(seed)
	f.Add(seed[:len(seed)-1]) // truncated payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Compressed
		if err := c.UnmarshalBinary(data); err == nil {
			if c.Cardinality() > 1<<22 {
				t.Skip("accepted huge bitmap; content comparison too big")
			}
			again, err := c.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var back Compressed
			if err := back.UnmarshalBinary(again); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(back.Bits(), c.Bits()) {
				t.Fatal("re-encode changed contents")
			}
		}
	})
}
