package labelstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mio/internal/durable"
	"mio/internal/fault"
)

// TestGetQuarantinesCorruptFile is the satellite: a corrupt label
// file must become a miss plus a *.corrupt rename, never an error or
// — worse — a trusted load.
func TestGetQuarantinesCorruptFile(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bit-flip-payload", func(b []byte) []byte { b[len(b)-1] ^= 0x04; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"garbage", func(b []byte) []byte { return []byte("not a label file at all") }},
		{"trailing", func(b []byte) []byte { return append(b, 0xFF) }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			l := NewLabels([]int{4, 2})
			l.ClearBit(0, 1, BitVerify)
			if err := s.Put(9, l); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "labels-9.bin")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(append([]byte(nil), raw...)), 0o644); err != nil {
				t.Fatal(err)
			}
			// A fresh store over the same dir must miss, not err/panic.
			s2, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := s2.Get(9); ok {
				t.Fatal("corrupt label file was served")
			}
			if s2.Quarantined() != 1 {
				t.Fatalf("quarantined = %d, want 1", s2.Quarantined())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt file still present under original name")
			}
			if _, err := os.Stat(path + durable.CorruptSuffix); err != nil {
				t.Errorf("no *.corrupt file: %v", err)
			}
			// The slot is reusable: a new Put writes a fresh valid file.
			if err := s2.Put(9, l); err != nil {
				t.Fatal(err)
			}
			s3, _ := NewDiskStore(dir)
			if got, ok := s3.Get(9); !ok || got.Get(0, 1)&BitVerify != 0 {
				t.Fatal("slot not reusable after quarantine")
			}
		})
	}
}

// TestLegacyLabelFileStillLoads: files written by the pre-envelope
// store (raw marshalLabels bytes) keep loading.
func TestLegacyLabelFileStillLoads(t *testing.T) {
	dir := t.TempDir()
	l := NewLabels([]int{3})
	l.ClearBit(0, 2, BitMapped)
	if err := os.WriteFile(filepath.Join(dir, "labels-4.bin"), marshalLabels(l), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(4)
	if !ok || got.Get(0, 2)&BitMapped != 0 {
		t.Fatal("legacy label file did not load")
	}
}

// TestPutCrashKeepsPreviousLabelFile: an injected crash during the
// label commit leaves the previous on-disk set intact and the new set
// warm in memory.
func TestPutCrashKeepsPreviousLabelFile(t *testing.T) {
	dir := t.TempDir()
	reg := fault.New(1)
	s, err := NewDiskStoreIO(dir, durable.IO{Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	v1 := NewLabels([]int{2})
	if err := s.Put(3, v1); err != nil {
		t.Fatal(err)
	}
	reg.Arm(fault.Rule{Point: fault.PointIOSync, Kind: fault.KindCrash, P: 1})
	v2 := NewLabels([]int{2})
	v2.ClearBit(0, 0, BitUpper)
	if err := s.Put(3, v2); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("injected Put returned %v", err)
	}
	// In-memory: warm with v2.
	if got, ok := s.Get(3); !ok || got.Get(0, 0)&BitUpper != 0 {
		t.Fatal("failed Put lost the in-memory labels")
	}
	// On disk: still v1, valid.
	reg.Clear(fault.PointIOSync)
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(3); !ok || got.Get(0, 0) != Initial {
		t.Fatal("crash during Put damaged the previous on-disk set")
	}
}

// TestUnmarshalLabelsHostileCounts pins the hardening: counts with
// the top bit set (negative as int) or absurdly large must error
// without panicking or allocating beyond the input.
func TestUnmarshalLabelsHostileCounts(t *testing.T) {
	mk := func(n, m uint64, body int) []byte {
		var buf bytes.Buffer
		var u [8]byte
		binary.LittleEndian.PutUint64(u[:], labelMagic1)
		buf.Write(u[:])
		binary.LittleEndian.PutUint64(u[:], n)
		buf.Write(u[:])
		if m != 0 || body != 0 {
			binary.LittleEndian.PutUint64(u[:], m)
			buf.Write(u[:])
			buf.Write(make([]byte, body))
		}
		return buf.Bytes()
	}
	hostile := [][]byte{
		mk(1<<63, 0, 0), // negative row count as int
		mk(1<<40, 0, 0), // huge row count, tiny input
		mk(1, 1<<63, 2), // negative point count as int
		mk(1, 1<<40, 2), // huge point count
		mk(2, 2, 2),     // second row header missing
	}
	for i, data := range hostile {
		if _, err := unmarshalLabels(data); err == nil {
			t.Errorf("hostile input %d accepted", i)
		}
	}
}

// FuzzUnmarshalLabels: arbitrary and bit-flipped inputs never panic,
// and valid marshals always round-trip.
func FuzzUnmarshalLabels(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add(marshalLabels(NewLabels([]int{3, 0, 2})), uint8(2), uint8(3))
	f.Add(marshalLabels(NewLabels(nil)), uint8(0), uint8(0))
	withR := NewLabels([]int{2, 1})
	withR.R = 5.5
	f.Add(marshalLabels(withR), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, rows uint8, flip uint8) {
		// Arbitrary input must not panic; errors are fine.
		l, err := unmarshalLabels(data)
		if err == nil {
			// Whatever decoded must re-marshal to the identical bytes
			// (the format has exactly one encoding per label set).
			if !bytes.Equal(marshalLabels(l), data) {
				t.Fatal("decode/encode not idempotent")
			}
		}
		// A valid marshal round-trips...
		counts := make([]int, rows%8)
		for i := range counts {
			counts[i] = int(flip) % 16
		}
		good := marshalLabels(NewLabels(counts))
		if _, err := unmarshalLabels(good); err != nil {
			t.Fatalf("valid marshal rejected: %v", err)
		}
		// ...and any single bit flip either errors or, at worst, stays
		// structurally sound (never panics). CRC protection lives one
		// layer up in the envelope.
		if len(good) > 0 {
			mut := append([]byte(nil), good...)
			mut[int(flip)%len(mut)] ^= 1 << (rows % 8)
			_, _ = unmarshalLabels(mut)
		}
	})
}
