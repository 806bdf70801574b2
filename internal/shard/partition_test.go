package shard

import (
	"fmt"
	"math"
	"testing"

	"mio/internal/data"
	"mio/internal/geom"
)

func uniformDS(n int, seed int64) *data.Dataset {
	return data.GenUniform(data.UniformConfig{N: n, M: 6, FieldSize: 40, Spread: 5, Seed: seed})
}

func bird2DS(n int) *data.Dataset {
	c := data.DefaultBird2()
	c.N = n
	return data.GenTrajectory(c)
}

// edgeDS puts object pairs across the split of a 2-shard partition
// with horizon 8 (the y-rank halves): A and B at exactly 8 apart, C and
// D just inside 8, E and F just outside. B also has a point far from
// every point of shard 0, which shard 0 must drop.
func edgeDS() *data.Dataset {
	ds := &data.Dataset{Name: "edge"}
	add := func(pts ...geom.Point) {
		ds.Objects = append(ds.Objects, data.Object{ID: len(ds.Objects), Pts: pts})
	}
	for i := 0; i < 10; i++ {
		add(geom.Pt(float64(20*i), -20-float64(i), 0))
		add(geom.Pt(float64(20*i), 20+float64(i), 0))
	}
	add(geom.Pt(0, -4, 0))                    // A
	add(geom.Pt(0, 4, 0), geom.Pt(0, 400, 0)) // B
	add(geom.Pt(50, -4, 0))                   // C
	add(geom.Pt(50, 3.999999, 0))             // D
	add(geom.Pt(100, -4, 0))                  // E
	add(geom.Pt(100, 4.000001, 0))            // F
	return ds
}

// roundDS puts a pair across the split of a 2-shard partition with
// horizon 8: y = 8 − ε and y = 16, whose squared distance rounds to
// exactly 64. From the dataset's min corner at the origin, on cells
// exactly 8 wide, they would be two cells apart.
func roundDS() *data.Dataset {
	ds := &data.Dataset{Name: "round"}
	for _, y := range []float64{0, 1, 2, 3, math.Nextafter(8, 0), 16, 100, 101, 102, 103} {
		ds.Objects = append(ds.Objects, data.Object{ID: len(ds.Objects), Pts: []geom.Point{geom.Pt(0, y, 0)}})
	}
	return ds
}

// TestPartitionInvariants checks the structural contract every other
// guarantee rests on: each object has exactly one primary shard, the
// member lists are sorted and consistent with the primary assignment,
// and the point-level halo holds every interaction partner of a
// shard's primaries at any radius up to MaxR: an object with a point
// within MaxR of a primary point of s is a member of s, and its local
// copy holds every such point. On edgeDS the pairs at and just inside
// MaxR cross the shard split, and on roundDS a pair that rounding
// would put two cells apart.
func TestPartitionInvariants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ds     *data.Dataset
		maxR   float64
		shards []int
	}{
		{"uniform", uniformDS(100, 3), 8, []int{2, 3, 4, 5, 7}},
		{"bird2", bird2DS(40), 10, []int{2, 4}},
		{"edge", edgeDS(), 8, []int{2, 3}},
		{"round", roundDS(), 8, []int{2}},
	} {
		for _, shards := range tc.shards {
			p, err := BuildPartition(tc.ds, shards, tc.maxR)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			checkPartition(t, fmt.Sprintf("%s shards=%d", tc.name, shards), tc.ds, p)
		}
	}

	// The edge and round pairs really cross the split, and B's far
	// point goes.
	ds := edgeDS()
	p, err := BuildPartition(ds, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{20, 21}, {22, 23}} {
		if p.Primary[pair[0]] != 0 || p.Primary[pair[1]] != 1 {
			t.Fatalf("edge pair %v in shards %d, %d, want 0, 1", pair, p.Primary[pair[0]], p.Primary[pair[1]])
		}
	}
	local, _ := p.ShardDataset(ds, 0)
	for l, g := range p.Members[0] {
		if g == 21 && len(local.Objects[l].Pts) != 1 {
			t.Fatalf("shard 0 holds B as %v, want its near point alone", local.Objects[l].Pts)
		}
	}
	rd := roundDS()
	rp, err := BuildPartition(rd, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := rd.Objects[4].Pts[0], rd.Objects[5].Pts[0]; rp.Primary[4] != 0 || rp.Primary[5] != 1 || geom.Dist2(a, b) > 64 {
		t.Fatalf("round pair in shards %d, %d at squared distance %g, want 0, 1 and ≤ 64", rp.Primary[4], rp.Primary[5], geom.Dist2(a, b))
	}
}

// checkPartition checks p's structure and its point-level halo against
// a brute-force scan of every point pair.
func checkPartition(t *testing.T, name string, ds *data.Dataset, p *Partition) {
	t.Helper()
	n := ds.N()
	primaries := 0
	for s := 0; s < p.Shards; s++ {
		if len(p.Members[s]) == 0 {
			t.Fatalf("%s: shard %d empty", name, s)
		}
		for l, g := range p.Members[s] {
			if l > 0 && p.Members[s][l-1] >= g {
				t.Fatalf("%s: shard %d members not strictly ascending", name, s)
			}
			if want := int(p.Primary[g]) == s; p.IsPrimary[s][l] != want {
				t.Fatalf("%s: shard %d member %d primary flag %v, Primary says %v",
					name, s, g, p.IsPrimary[s][l], want)
			}
			if p.IsPrimary[s][l] {
				primaries++
			}
		}
	}
	if primaries != n {
		t.Fatalf("%s: %d primaries for %d objects", name, primaries, n)
	}

	// held[s][g] is the set of object g's points shard s holds.
	held := make([]map[int]map[geom.Point]bool, p.Shards)
	for s := range held {
		local, _ := p.ShardDataset(ds, s)
		held[s] = make(map[int]map[geom.Point]bool, len(p.Members[s]))
		for l, g := range p.Members[s] {
			pts := make(map[geom.Point]bool, len(local.Objects[l].Pts))
			for _, pt := range local.Objects[l].Pts {
				pts[pt] = true
			}
			held[s][int(g)] = pts
		}
	}
	r2 := p.MaxR * p.MaxR
	for g := 0; g < n; g++ {
		s := int(p.Primary[g])
		for h := 0; h < n; h++ {
			if p.Primary[h] == p.Primary[g] {
				continue
			}
			for _, a := range ds.Objects[g].Pts {
				for _, b := range ds.Objects[h].Pts {
					if geom.Dist2(a, b) > r2 {
						continue
					}
					if !held[s][h][b] {
						t.Fatalf("%s: point %v of object %d is within %g of primary %d's %v but absent from shard %d",
							name, b, h, p.MaxR, g, a, s)
					}
				}
			}
		}
	}
}

func TestPartitionRejects(t *testing.T) {
	ds := uniformDS(10, 1)
	if _, err := BuildPartition(ds, 1, 5); err == nil {
		t.Fatal("accepted 1 shard")
	}
	if _, err := BuildPartition(ds, 11, 5); err == nil {
		t.Fatal("accepted more shards than objects")
	}
	if _, err := BuildPartition(ds, 2, 0); err == nil {
		t.Fatal("accepted zero replica horizon")
	}
}

// TestShardDataset: a primary, and a replica the shard keeps whole,
// alias the dataset's points; a trimmed replica holds the points it
// keeps, in order, with their timestamps — aliased when they form one
// run of the object's points, a copy otherwise.
func TestShardDataset(t *testing.T) {
	ds := data.WithTimestamps(uniformDS(60, 9), 1, 100, 5)
	p, err := BuildPartition(ds, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	runs, copies := 0, 0
	for s := 0; s < p.Shards; s++ {
		local, primary := p.ShardDataset(ds, s)
		if len(primary) != local.N() {
			t.Fatalf("shard %d: mask length %d vs %d objects", s, len(primary), local.N())
		}
		if err := local.Validate(); err != nil {
			t.Fatalf("shard %d: invalid local dataset: %v", s, err)
		}
		for l, g := range p.Members[s] {
			lo, src := &local.Objects[l], &ds.Objects[g]
			if lo.ID != l {
				t.Fatalf("shard %d: local object %d has id %d", s, l, lo.ID)
			}
			if len(lo.Pts) == len(src.Pts) {
				if &lo.Pts[0] != &src.Pts[0] || &lo.Times[0] != &src.Times[0] {
					t.Fatalf("shard %d: local object %d copied its points", s, l)
				}
				continue
			}
			if primary[l] {
				t.Fatalf("shard %d: primary %d holds %d of its %d points", s, g, len(lo.Pts), len(src.Pts))
			}
			// The kept points are a subsequence of src's, each with
			// its own timestamp; at[i] is point i's index in src.
			at := make([]int, 0, len(lo.Pts))
			j := 0
			for i, pt := range lo.Pts {
				for j < len(src.Pts) && src.Pts[j] != pt {
					j++
				}
				if j == len(src.Pts) {
					t.Fatalf("shard %d: replica %d point %d (%v) is no point of the object, in order", s, g, i, pt)
				}
				if lo.Times[i] != src.Times[j] {
					t.Fatalf("shard %d: replica %d point %d has time %g, want %g", s, g, i, lo.Times[i], src.Times[j])
				}
				at = append(at, j)
				j++
			}
			run := at[len(at)-1]-at[0] == len(at)-1
			aliased := &lo.Pts[0] == &src.Pts[at[0]] && &lo.Times[0] == &src.Times[at[0]]
			if run != aliased {
				t.Fatalf("shard %d: trimmed replica %d keeps points %v: aliased %v", s, g, at, aliased)
			}
			if run {
				runs++
			} else {
				copies++
			}
		}
		if got := p.Primaries(s); got == 0 {
			t.Fatalf("shard %d: no primaries", s)
		}
	}
	if runs == 0 || copies == 0 {
		t.Fatalf("%d trimmed replicas alias a run and %d hold copies: want some of each", runs, copies)
	}
}
