// Package data defines the object/dataset model shared by every
// algorithm in the repository, synthetic dataset generators standing in
// for the paper's real datasets (see DESIGN.md §5), text and binary
// serialisation, sampling and statistics.
package data

import (
	"fmt"
	"math/rand"

	"mio/internal/geom"
)

// Object is a spatial object: a set of points, optionally with one
// timestamp per point (used only by the temporal variant of Appendix
// B; Times is nil for purely spatial data). ID is the object's index in
// its dataset, the id every engine takes and reports; inside, the
// engine numbers objects in a spatial order of its own.
type Object struct {
	ID    int
	Pts   []geom.Point
	Times []float64
}

// Temporal reports whether the object carries timestamps.
func (o *Object) Temporal() bool { return o.Times != nil }

// Dataset is an in-memory, static collection of objects, as the paper
// assumes (§II-A). Object IDs always equal their slice index.
type Dataset struct {
	Objects []Object
	// Name labels the dataset in reports; it has no semantic meaning.
	Name string
}

// N returns the number of objects (the paper's n).
func (d *Dataset) N() int { return len(d.Objects) }

// TotalPoints returns the total number of points (the paper's n·m).
func (d *Dataset) TotalPoints() int {
	t := 0
	for i := range d.Objects {
		t += len(d.Objects[i].Pts)
	}
	return t
}

// AvgPoints returns the average number of points per object (the
// paper's m).
func (d *Dataset) AvgPoints() float64 {
	if d.N() == 0 {
		return 0
	}
	return float64(d.TotalPoints()) / float64(d.N())
}

// Bounds returns the bounding box of all points.
func (d *Dataset) Bounds() geom.Box {
	b := geom.EmptyBox()
	for i := range d.Objects {
		for _, p := range d.Objects[i].Pts {
			b = b.Expand(p)
		}
	}
	return b
}

// Validate checks structural invariants: ids match indices, no empty
// objects, and timestamp slices (when present) match point counts.
func (d *Dataset) Validate() error {
	for i := range d.Objects {
		o := &d.Objects[i]
		if o.ID != i {
			return fmt.Errorf("data: object at index %d has id %d", i, o.ID)
		}
		if len(o.Pts) == 0 {
			return fmt.Errorf("data: object %d has no points", i)
		}
		if o.Times != nil && len(o.Times) != len(o.Pts) {
			return fmt.Errorf("data: object %d has %d points but %d timestamps", i, len(o.Pts), len(o.Times))
		}
	}
	return nil
}

// Sample returns a new dataset holding a uniform sample of rate·n
// objects, re-numbered from zero, drawn deterministically from seed.
// This is the scalability-test workload of Fig. 6.
func (d *Dataset) Sample(rate float64, seed int64) *Dataset {
	if rate >= 1 {
		return d.Clone()
	}
	rng := rand.New(rand.NewSource(seed))
	want := int(rate * float64(d.N()))
	perm := rng.Perm(d.N())[:want]
	out := &Dataset{Name: fmt.Sprintf("%s[s=%.2f]", d.Name, rate)}
	out.Objects = make([]Object, 0, want)
	for _, idx := range perm {
		o := d.Objects[idx]
		out.Objects = append(out.Objects, Object{
			ID:    len(out.Objects),
			Pts:   o.Pts,
			Times: o.Times,
		})
	}
	return out
}

// Clone returns a copy of the dataset that shares point storage but
// owns its object slice.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Name: d.Name, Objects: append([]Object(nil), d.Objects...)}
	return out
}

// Stats summarises a dataset in the shape of the paper's Table I.
type Stats struct {
	Name        string
	N           int
	M           float64
	TotalPoints int
	Bounds      geom.Box
}

// Summary computes the dataset statistics.
func (d *Dataset) Summary() Stats {
	return Stats{
		Name:        d.Name,
		N:           d.N(),
		M:           d.AvgPoints(),
		TotalPoints: d.TotalPoints(),
		Bounds:      d.Bounds(),
	}
}

// String formats the stats as one row of Table I.
func (s Stats) String() string {
	return fmt.Sprintf("%-12s n=%-8d m=%-8.1f nm=%d", s.Name, s.N, s.M, s.TotalPoints)
}
