// Package labelstore persists the per-point labels of §III-D. A label
// is three bits (Definition 4), initialised to 111:
//
//	bit 0 (Labeling-1): 0 ⇒ the point interacts with no other object at
//	  any r with this ⌈r⌉ — it can be skipped everywhere, including
//	  grid mapping (Lemma 3).
//	bit 1 (Labeling-2): 0 ⇒ the point's b^adj OR contributed nothing
//	  during upper-bounding — skip it there.
//	bit 2 (Labeling-3): 0 ⇒ the candidate mask of the point's group
//	  P_{i,K} was empty during verification — skip it there.
//
// Labeling-1 and -2 are specific to the large-grid, i.e. to ⌈r⌉: every
// query whose threshold shares the ceiling can reuse them. Labeling-3
// depends on b(o_i) — on the exact r — so a label set records the r it
// was collected at and bit 2 is honoured only at that r (Labels.R).
//
// The number of issued queries is unbounded, so the store can spill
// label sets to external memory (one file per ⌈r⌉) and load them back on
// demand, matching the paper's O(nm/B) I/O analysis.
package labelstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"mio/internal/durable"
)

// Label bit masks.
const (
	BitMapped uint8 = 1 << 0 // Labeling-1 (cleared ⇒ prune point entirely)
	BitUpper  uint8 = 1 << 1 // Labeling-2 (cleared ⇒ skip in upper-bounding)
	BitVerify uint8 = 1 << 2 // Labeling-3 (cleared ⇒ skip in verification)

	// Initial is the all-ones label every point starts with.
	Initial uint8 = BitMapped | BitUpper | BitVerify
)

// Labels holds one label byte per point of every object, for one ⌈r⌉.
type Labels struct {
	// PerObject[i][j] is the label of point j of object i.
	PerObject [][]uint8
	// R is the exact threshold the set was collected at, or 0 when
	// unknown (a file written before r was recorded). The "candidate mask was empty" observation behind
	// BitVerify holds only for the b(o_i) of that r, so verification
	// honours the bit only when its own r equals R.
	R float64
}

// NewLabels allocates all-ones labels for objects with the given point
// counts.
func NewLabels(pointCounts []int) *Labels {
	l := &Labels{PerObject: make([][]uint8, len(pointCounts))}
	for i, n := range pointCounts {
		row := make([]uint8, n)
		for j := range row {
			row[j] = Initial
		}
		l.PerObject[i] = row
	}
	return l
}

// Get returns the label of point j of object i.
func (l *Labels) Get(obj, pt int) uint8 { return l.PerObject[obj][pt] }

// ClearBit clears the given label bit of point j of object i.
func (l *Labels) ClearBit(obj, pt int, bit uint8) { l.PerObject[obj][pt] &^= bit }

// SizeBytes returns the label payload size (the paper's O(nm) space).
func (l *Labels) SizeBytes() int {
	n := 0
	for _, row := range l.PerObject {
		n += len(row)
	}
	return n
}

// Counts returns, per label bit, how many points have it cleared.
func (l *Labels) Counts() (mapped, upper, verify int) {
	for _, row := range l.PerObject {
		for _, v := range row {
			if v&BitMapped == 0 {
				mapped++
			}
			if v&BitUpper == 0 {
				upper++
			}
			if v&BitVerify == 0 {
				verify++
			}
		}
	}
	return
}

// Store keeps label sets keyed by ⌈r⌉. With a Dir configured, Put
// writes each label set to disk and Get reads it back, so labels
// survive beyond memory as §III-D prescribes; without a Dir the store
// is purely in-memory.
//
// Disk round-trips go through internal/durable: label files are
// committed atomically inside a checksummed envelope, and a file that
// fails validation on read — torn write, bit flip, truncation — is
// quarantined (renamed *.corrupt) and reported as a miss. Labels are
// a cache of recyclable work, so "recompute" is always a safe answer;
// serving a corrupt label set would silently skip live points.
type Store struct {
	mu    sync.Mutex
	mem   map[int]*Labels
	dir   string
	dio   durable.IO
	cache bool // keep disk-backed label sets in memory too

	quarantined uint64 // corrupt files moved aside by Get
}

// NewStore returns an in-memory label store.
func NewStore() *Store {
	return &Store{mem: make(map[int]*Labels), cache: true}
}

// NewDiskStore returns a store that persists label sets under dir
// (created if needed). Label sets are still served from memory once
// loaded.
func NewDiskStore(dir string) (*Store, error) {
	return NewDiskStoreIO(dir, durable.IO{})
}

// NewDiskStoreIO is NewDiskStore with an explicit durability context,
// so crash tests can inject IO faults into label commits.
func NewDiskStoreIO(dir string, dio durable.IO) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("labelstore: %w", err)
	}
	return &Store{mem: make(map[int]*Labels), dir: dir, dio: dio, cache: true}, nil
}

func (s *Store) path(ceil int) string {
	return filepath.Join(s.dir, fmt.Sprintf("labels-%d.bin", ceil))
}

// Put stores the labels for the given ⌈r⌉, replacing any previous
// set. The in-memory copy is installed first: even when the durable
// commit fails (disk full, injected IO fault) this process keeps its
// warm labels, and the commit protocol guarantees the previous on-disk
// set survives intact.
func (s *Store) Put(ceil int, l *Labels) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[ceil] = l
	if s.dir == "" {
		return nil
	}
	if err := s.dio.CommitEnvelope(s.path(ceil), marshalLabels(l)); err != nil {
		return fmt.Errorf("labelstore: write: %w", err)
	}
	return nil
}

// Get returns the labels for the given ⌈r⌉, or (nil, false) when none
// exist. Disk-backed sets are loaded on first access. A file that
// fails validation — bad envelope, CRC mismatch, malformed payload —
// is quarantined as *.corrupt and reported as a miss, never an error:
// the caller recomputes and the next Put writes a fresh file.
func (s *Store) Get(ceil int) (*Labels, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.mem[ceil]; ok {
		return l, true
	}
	if s.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(s.path(ceil))
	if err != nil {
		return nil, false
	}
	payload := data
	if durable.IsEnveloped(data) {
		payload, err = durable.Open(data)
		if err != nil {
			s.quarantine(ceil)
			return nil, false
		}
	}
	// Legacy pre-envelope files skip the branch above and are decoded
	// raw; unmarshalLabels rejects anything structurally unsound.
	l, err := unmarshalLabels(payload)
	if err != nil {
		s.quarantine(ceil)
		return nil, false
	}
	if s.cache {
		s.mem[ceil] = l
	}
	return l, true
}

// quarantine moves a corrupt label file aside; called with mu held.
func (s *Store) quarantine(ceil int) {
	if err := s.dio.Quarantine(s.path(ceil)); err == nil {
		s.quarantined++
	}
}

// Quarantined returns how many corrupt label files this store has
// moved aside.
func (s *Store) Quarantined() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// Has reports whether labels exist for the given ⌈r⌉ without loading
// them.
func (s *Store) Has(ceil int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.mem[ceil]; ok {
		return true
	}
	if s.dir == "" {
		return false
	}
	_, err := os.Stat(s.path(ceil))
	return err == nil
}

// A label payload is magic | [r] | object count | rows. labelMagic2
// carries the collection r after the magic; labelMagic1 is the layout
// from before r was recorded and still the layout of a set whose r is
// unknown, so a decoded set always re-encodes to the bytes it came from.
const (
	labelMagic1 = uint64(0x4d494f4c41424c31) // "MIOLABL1"
	labelMagic2 = uint64(0x4d494f4c41424c32) // "MIOLABL2"
)

func marshalLabels(l *Labels) []byte {
	size := 24
	for _, row := range l.PerObject {
		size += 8 + len(row)
	}
	buf := make([]byte, 0, size)
	if l.R == 0 {
		buf = binary.LittleEndian.AppendUint64(buf, labelMagic1)
	} else {
		buf = binary.LittleEndian.AppendUint64(buf, labelMagic2)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l.R))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(l.PerObject)))
	for _, row := range l.PerObject {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(row)))
		buf = append(buf, row...)
	}
	return buf
}

// unmarshalLabels decodes a label payload defensively: every count is
// validated against the bytes actually present *before* it is
// converted to int or used to allocate, so garbage input — including
// counts with the top bit set, which would turn into negative ints
// and panic the old slice arithmetic — yields an error, never a panic
// or an allocation larger than the input itself.
func unmarshalLabels(data []byte) (*Labels, error) {
	if len(data) < 16 {
		return nil, errors.New("labelstore: truncated header")
	}
	l := &Labels{}
	pos := 8
	switch binary.LittleEndian.Uint64(data) {
	case labelMagic1:
	case labelMagic2:
		if len(data) < 24 {
			return nil, errors.New("labelstore: truncated header")
		}
		l.R = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
		if !(l.R > 0) || math.IsInf(l.R, 0) {
			return nil, fmt.Errorf("labelstore: collection r %g is not positive and finite", l.R)
		}
		pos += 8
	default:
		return nil, errors.New("labelstore: bad magic")
	}
	n64 := binary.LittleEndian.Uint64(data[pos:])
	pos += 8
	// Every row costs at least its 8-byte length header, so the input
	// size bounds the row count exactly; this also caps the PerObject
	// allocation at len(data)/8 entries.
	if n64 > uint64(len(data)-pos)/8 {
		return nil, fmt.Errorf("labelstore: object count %d exceeds input", n64)
	}
	n := int(n64)
	l.PerObject = make([][]uint8, n)
	for i := 0; i < n; i++ {
		if pos+8 > len(data) {
			return nil, errors.New("labelstore: truncated row header")
		}
		m64 := binary.LittleEndian.Uint64(data[pos:])
		pos += 8
		if m64 > uint64(len(data)-pos) {
			return nil, errors.New("labelstore: truncated row")
		}
		m := int(m64)
		l.PerObject[i] = append([]uint8(nil), data[pos:pos+m]...)
		pos += m
	}
	if pos != len(data) {
		return nil, errors.New("labelstore: trailing bytes")
	}
	return l, nil
}
