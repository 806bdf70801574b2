package labelstore

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestLabelsBasics(t *testing.T) {
	l := NewLabels([]int{3, 0, 2})
	if got := l.Get(0, 0); got != Initial {
		t.Fatalf("initial label = %b", got)
	}
	l.ClearBit(0, 1, BitUpper)
	if l.Get(0, 1)&BitUpper != 0 {
		t.Fatal("ClearBit failed")
	}
	if l.Get(0, 1)&BitMapped == 0 || l.Get(0, 1)&BitVerify == 0 {
		t.Fatal("ClearBit touched other bits")
	}
	l.ClearBit(2, 0, BitMapped)
	l.ClearBit(2, 1, BitVerify)
	m, u, v := l.Counts()
	if m != 1 || u != 1 || v != 1 {
		t.Fatalf("counts = %d %d %d", m, u, v)
	}
	if l.SizeBytes() != 5 {
		t.Fatalf("size = %d", l.SizeBytes())
	}
}

func TestStoreInMemory(t *testing.T) {
	s := NewStore()
	if s.Has(4) {
		t.Fatal("empty store Has")
	}
	if _, ok := s.Get(4); ok {
		t.Fatal("empty store Get")
	}
	l := NewLabels([]int{2, 2})
	l.ClearBit(1, 0, BitVerify)
	if err := s.Put(4, l); err != nil {
		t.Fatal(err)
	}
	if !s.Has(4) {
		t.Fatal("Has after Put")
	}
	got, ok := s.Get(4)
	if !ok || got.Get(1, 0)&BitVerify != 0 {
		t.Fatal("Get mismatch")
	}
}

func TestStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLabels([]int{3, 1})
	l.ClearBit(0, 2, BitMapped)
	l.ClearBit(1, 0, BitUpper)
	if err := s.Put(7, l); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same dir must load from disk.
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(7) {
		t.Fatal("disk store lost labels")
	}
	got, ok := s2.Get(7)
	if !ok {
		t.Fatal("Get from disk failed")
	}
	if got.Get(0, 2)&BitMapped != 0 || got.Get(1, 0)&BitUpper != 0 {
		t.Fatal("disk round-trip lost bits")
	}
	if got.Get(0, 0) != Initial {
		t.Fatal("disk round-trip corrupted untouched label")
	}
}

func TestUnmarshalLabelErrors(t *testing.T) {
	if _, err := unmarshalLabels(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := unmarshalLabels(make([]byte, 16)); err == nil {
		t.Error("bad magic accepted")
	}
	good := marshalLabels(NewLabels([]int{2}))
	if _, err := unmarshalLabels(good[:len(good)-1]); err == nil {
		t.Error("truncated accepted")
	}
	if _, err := unmarshalLabels(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if back, err := unmarshalLabels(good); err != nil || len(back.PerObject) != 1 {
		t.Errorf("good payload rejected: %v", err)
	}
}

// TestLabelsRecordR: the collection r survives the disk round trip
// (MIOLABL2), a set without one still encodes and decodes in the
// MIOLABL1 layout, and a MIOLABL2 payload whose r is not a positive
// finite number is refused.
func TestLabelsRecordR(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLabels([]int{2, 1})
	l.R = 5.5
	l.ClearBit(1, 0, BitVerify)
	if err := s.Put(6, l); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(6); !ok || got.R != 5.5 || got.Get(1, 0)&BitVerify != 0 {
		t.Fatalf("reloaded labels = %+v, want r=5.5 with the cleared bit", got)
	}

	v1 := marshalLabels(NewLabels([]int{3}))
	if magic := binary.LittleEndian.Uint64(v1); magic != labelMagic1 {
		t.Fatalf("set with unknown r encoded with magic %#x, want MIOLABL1", magic)
	}
	if back, err := unmarshalLabels(v1); err != nil || back.R != 0 || len(back.PerObject[0]) != 3 {
		t.Fatalf("MIOLABL1 payload: %+v, %v", back, err)
	}

	good := marshalLabels(l)
	if magic := binary.LittleEndian.Uint64(good); magic != labelMagic2 {
		t.Fatalf("set with r encoded with magic %#x, want MIOLABL2", magic)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		data := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(data[8:], math.Float64bits(bad))
		if _, err := unmarshalLabels(data); err == nil {
			t.Errorf("MIOLABL2 payload with r=%g accepted", bad)
		}
	}
	if _, err := unmarshalLabels(good[:20]); err == nil {
		t.Error("MIOLABL2 payload cut inside its header accepted")
	}
}

func TestDiskStoreBadDir(t *testing.T) {
	// A file where the directory should be.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskStore(filepath.Join(f, "sub")); err == nil {
		t.Error("dir under file accepted")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				ceil := w%3 + 1
				s.Put(ceil, NewLabels([]int{4}))
				s.Get(ceil)
				s.Has(ceil)
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}
