package grid

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mio/internal/geom"
)

func TestKeyForQuantises(t *testing.T) {
	if k := KeyFor(geom.Pt(0.5, 1.5, -0.5), 1); k != (Key{0, 1, -1}) {
		t.Errorf("KeyFor = %v", k)
	}
	if k := KeyFor(geom.Pt(10, 10, 10), 2.5); k != (Key{4, 4, 4}) {
		t.Errorf("KeyFor = %v", k)
	}
	// Exactly on a boundary falls into the upper cell.
	if k := KeyFor(geom.Pt(2, 0, 0), 2); k.X != 1 {
		t.Errorf("boundary key = %v", k)
	}
	// Negative coordinates floor downward.
	if k := KeyFor(geom.Pt(-0.1, 0, 0), 1); k.X != -1 {
		t.Errorf("negative key = %v", k)
	}
}

func TestNeighbors(t *testing.T) {
	k := Key{0, 0, 0}
	n := k.Neighbors(nil)
	if len(n) != 26 {
		t.Fatalf("neighbors = %d, want 26", len(n))
	}
	seen := map[Key]bool{}
	for _, nk := range n {
		if nk == k {
			t.Error("self in Neighbors")
		}
		if seen[nk] {
			t.Errorf("duplicate %v", nk)
		}
		seen[nk] = true
		if abs32(nk.X-k.X) > 1 || abs32(nk.Y-k.Y) > 1 || abs32(nk.Z-k.Z) > 1 {
			t.Errorf("non-adjacent %v", nk)
		}
	}
	ns := k.NeighborsAndSelf(nil)
	if len(ns) != 27 || ns[0] != k {
		t.Fatalf("NeighborsAndSelf = %d keys, first %v", len(ns), ns[0])
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// Property (Definition 2): two points in the same small-grid cell are
// within r of each other.
func TestSmallWidthGuarantee(t *testing.T) {
	f := func(r float64, a, b [3]float64) bool {
		r = 0.1 + math.Abs(math.Mod(r, 100))
		for i := range a {
			a[i] = math.Mod(a[i], 1000)
			b[i] = math.Mod(b[i], 1000)
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
				return true
			}
		}
		w := SmallWidth(r, 3)
		p := geom.Pt(a[0], a[1], a[2])
		// Force q into p's cell by construction.
		k := KeyFor(p, w)
		q := geom.Pt(
			(float64(k.X)+frac(b[0]))*w,
			(float64(k.Y)+frac(b[1]))*w,
			(float64(k.Z)+frac(b[2]))*w,
		)
		if KeyFor(q, w) != k {
			return true // construction edge case; skip
		}
		return geom.Dist(p, q) <= r*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func frac(v float64) float64 {
	v = math.Abs(v)
	return v - math.Floor(v)
}

// Property (Definition 3): every point within r of p lies in p's
// large-grid cell or one of its 26 neighbours.
func TestLargeNeighborhoodCoversRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		r := 0.5 + rng.Float64()*20
		w := LargeWidth(r)
		p := geom.Pt(rng.Float64()*100-50, rng.Float64()*100-50, rng.Float64()*100-50)
		// Random point within r of p.
		dir := geom.Pt(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		n := dir.Norm()
		if n == 0 {
			continue
		}
		q := p.Add(dir.Scale(rng.Float64() * r / n))
		pk := KeyFor(p, w)
		qk := KeyFor(q, w)
		if abs32(pk.X-qk.X) > 1 || abs32(pk.Y-qk.Y) > 1 || abs32(pk.Z-qk.Z) > 1 {
			t.Fatalf("r=%g w=%g: %v -> %v not adjacent (dist %g)", r, w, pk, qk, geom.Dist(p, q))
		}
	}
}

func TestSmallWidth2D(t *testing.T) {
	if w := SmallWidth(4, 2); math.Abs(w-4/math.Sqrt2) > 1e-12 {
		t.Errorf("2D width = %v", w)
	}
	if w := SmallWidth(4, 3); math.Abs(w-4/math.Sqrt(3)) > 1e-12 {
		t.Errorf("3D width = %v", w)
	}
	if LargeWidth(4.2) != 5 {
		t.Errorf("LargeWidth(4.2) = %v", LargeWidth(4.2))
	}
	if LargeWidth(4) != 4 {
		t.Errorf("LargeWidth(4) = %v", LargeWidth(4))
	}
}

func TestSmallGridAddTransitions(t *testing.T) {
	g := NewSmallGrid(1)
	p := geom.Pt(0.5, 0.5, 0.5)
	k, before, after, cell := g.Add(0, p)
	if before != 0 || after != 1 {
		t.Fatalf("first add: %d -> %d", before, after)
	}
	if cell.FirstObject() != 0 {
		t.Fatalf("first object = %d", cell.FirstObject())
	}
	// Same object again: no transition.
	_, before, after, _ = g.Add(0, geom.Pt(0.6, 0.6, 0.6))
	if before != 1 || after != 1 {
		t.Fatalf("same-object re-add: %d -> %d", before, after)
	}
	// Second object: 1 -> 2.
	_, before, after, _ = g.Add(3, geom.Pt(0.7, 0.7, 0.7))
	if before != 1 || after != 2 {
		t.Fatalf("second object: %d -> %d", before, after)
	}
	// Third object: 2 -> 3.
	_, before, after, _ = g.Add(5, geom.Pt(0.2, 0.2, 0.2))
	if before != 2 || after != 3 {
		t.Fatalf("third object: %d -> %d", before, after)
	}
	if g.Len() != 1 {
		t.Fatalf("cells = %d", g.Len())
	}
	if g.Cell(k) != cell {
		t.Fatal("Cell lookup mismatch")
	}
	if g.Cell(Key{9, 9, 9}) != nil {
		t.Fatal("phantom cell")
	}
	if g.SizeBytes() <= 0 || g.UncompressedSizeBytes(1000) <= g.SizeBytes() {
		t.Error("size accounting implausible")
	}
	count := 0
	g.ForEach(func(Key, *SmallCell) { count++ })
	if count != 1 {
		t.Fatalf("ForEach visited %d", count)
	}
	if g.Width() != 1 {
		t.Fatal("width")
	}
}

func TestLargeGridPostings(t *testing.T) {
	g := NewLargeGrid(2, 8)
	pts := []geom.Point{
		geom.Pt(0.5, 0.5, 0.5),
		geom.Pt(1.0, 1.0, 1.0),
		geom.Pt(1.5, 0.5, 0.5),
	}
	g.Add(0, 0, pts[0])
	g.Add(0, 1, pts[1])
	g.Add(2, 0, pts[2])
	k := g.KeyFor(pts[0])
	c := g.Cell(k)
	if c == nil {
		t.Fatal("cell missing")
	}
	if xs, _, _ := c.Points(c.PostingIndex(0)); len(xs) != 2 {
		t.Fatalf("posting(0) = %d pts", len(xs))
	}
	if xs, _, _ := c.Points(c.PostingIndex(2)); len(xs) != 1 {
		t.Fatalf("posting(2) = %d pts", len(xs))
	}
	if pi := c.PostingIndex(1); pi != -1 {
		t.Fatalf("PostingIndex(1) = %d", pi)
	}
	if c.B.Cardinality() != 2 {
		t.Fatalf("cell bitset card = %d", c.B.Cardinality())
	}
	if idx := c.PointIdx(0); len(idx) != 2 || idx[1] != 1 {
		t.Fatalf("point indices wrong: %v", idx)
	}
}

// TestPostingIndex pins the binary-search lookup.
func TestPostingIndex(t *testing.T) {
	g := NewLargeGrid(4, 16)
	for _, obj := range []int{1, 4, 9} {
		g.Add(obj, 0, geom.Pt(0.5, 0.5, 0.5))
	}
	c := g.Cell(g.KeyFor(geom.Pt(0.5, 0.5, 0.5)))
	for _, tc := range []struct{ obj, want int }{{1, 0}, {4, 1}, {9, 2}, {0, -1}, {5, -1}, {100, -1}} {
		if got := c.PostingIndex(tc.obj); got != tc.want {
			t.Errorf("PostingIndex(%d) = %d, want %d", tc.obj, got, tc.want)
		}
	}
}

// TestFlatPostingLayout pins the one posting layout: whether the cells
// were filled by id-ordered Adds alone or by MergeFrom of
// range-partitioned parts, every cell's Objs is strictly increasing,
// Off is monotone and ends at NumPoints, PostingIndex finds exactly the
// objects present, and each posting holds its object's points of that
// cell with their indices, in insertion order.
func TestFlatPostingLayout(t *testing.T) {
	const nObj, width = 120, 2.0
	rng := rand.New(rand.NewSource(31))
	objs := make([][]geom.Point, nObj)
	for i := range objs {
		// Path-like, so consecutive points share cells.
		p := geom.Pt(rng.Float64()*30, rng.Float64()*30, rng.Float64()*30)
		for j := 0; j < 1+rng.Intn(30); j++ {
			p = p.Add(geom.Pt(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()))
			objs[i] = append(objs[i], p)
		}
	}
	// The reference inverted list, built without the grid.
	type ref struct {
		pts []geom.Point
		idx []int32
	}
	want := map[Key]map[int]*ref{}
	for i, pts := range objs {
		for j, p := range pts {
			k := KeyFor(p, width)
			if want[k] == nil {
				want[k] = map[int]*ref{}
			}
			if want[k][i] == nil {
				want[k][i] = &ref{}
			}
			want[k][i].pts = append(want[k][i].pts, p)
			want[k][i].idx = append(want[k][i].idx, int32(j))
		}
	}
	build := func(lo, hi int) *LargeGrid {
		g := NewLargeGrid(width, nObj)
		for i := lo; i < hi; i++ {
			for j, p := range objs[i] {
				g.Add(i, j, p)
			}
		}
		return g
	}
	for _, tc := range []struct {
		name  string
		parts int
	}{{"serial", 1}, {"merged/2", 2}, {"merged/3", 3}, {"merged/7", 7}} {
		t.Run(tc.name, func(t *testing.T) {
			g := build(0, nObj/tc.parts)
			for w := 1; w < tc.parts; w++ {
				g.MergeFrom(build(w*nObj/tc.parts, (w+1)*nObj/tc.parts))
			}
			if g.Len() != len(want) {
				t.Fatalf("cells = %d, want %d", g.Len(), len(want))
			}
			g.ForEach(func(k Key, c *LargeCell) {
				if len(c.Off) != len(c.Objs)+1 || c.Off[0] != 0 || int(c.Off[len(c.Objs)]) != c.NumPoints() {
					t.Fatalf("cell %v: Off = %v for %d postings, %d points", k, c.Off, len(c.Objs), c.NumPoints())
				}
				if len(c.Objs) != len(want[k]) || c.B.Cardinality() != len(want[k]) {
					t.Fatalf("cell %v: %d postings, b(c) card %d, want %d", k, len(c.Objs), c.B.Cardinality(), len(want[k]))
				}
				for pi, obj := range c.Objs {
					if pi > 0 && obj <= c.Objs[pi-1] {
						t.Fatalf("cell %v: Objs not strictly increasing: %v", k, c.Objs)
					}
					if c.Off[pi+1] <= c.Off[pi] {
						t.Fatalf("cell %v: Off not increasing: %v", k, c.Off)
					}
					if got := c.PostingIndex(int(obj)); got != pi {
						t.Fatalf("cell %v: PostingIndex(%d) = %d, want %d", k, obj, got, pi)
					}
					w := want[k][int(obj)]
					if w == nil {
						t.Fatalf("cell %v: posting for absent object %d", k, obj)
					}
					xs, ys, zs := c.Points(pi)
					if len(xs) != len(w.pts) || len(ys) != len(xs) || len(zs) != len(xs) {
						t.Fatalf("cell %v obj %d: %d points, want %d", k, obj, len(xs), len(w.pts))
					}
					for j, p := range w.pts {
						if geom.Pt(xs[j], ys[j], zs[j]) != p {
							t.Fatalf("cell %v obj %d point %d: got %v, want %v", k, obj, j, geom.Pt(xs[j], ys[j], zs[j]), p)
						}
					}
					if !reflect.DeepEqual(c.PointIdx(pi), w.idx) {
						t.Fatalf("cell %v obj %d: Idx = %v, want %v", k, obj, c.PointIdx(pi), w.idx)
					}
				}
				for obj := 0; obj < nObj; obj++ {
					if want[k][obj] == nil && c.PostingIndex(obj) != -1 {
						t.Fatalf("cell %v: PostingIndex(%d) hit for an absent object", k, obj)
					}
				}
			})
		})
	}
}

func TestComputeAdj(t *testing.T) {
	g := NewLargeGrid(1, 8)
	// Objects 0,1 in adjacent cells; object 2 far away.
	g.Add(0, 0, geom.Pt(0.5, 0.5, 0.5))
	g.Add(1, 0, geom.Pt(1.5, 0.5, 0.5))
	g.Add(2, 0, geom.Pt(50, 50, 50))

	k0 := g.KeyFor(geom.Pt(0.5, 0.5, 0.5))
	adj, fresh := g.ComputeAdj(k0)
	if !fresh {
		t.Fatal("first ComputeAdj not fresh")
	}
	if got := adj.Bits(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("adj bits = %v", got)
	}
	if g.Cell(k0).Adj() != adj {
		t.Fatal("Adj not memoised")
	}
	adj2, fresh2 := g.ComputeAdj(k0)
	if fresh2 || adj2 != adj {
		t.Fatal("second ComputeAdj recomputed")
	}
	kFar := g.KeyFor(geom.Pt(50, 50, 50))
	adjFar, _ := g.ComputeAdj(kFar)
	if got := adjFar.Bits(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("isolated adj = %v", got)
	}
	if a, fresh := g.ComputeAdj(Key{99, 99, 99}); a != nil || fresh {
		t.Fatal("ComputeAdj on missing cell")
	}
}

func TestGridMerge(t *testing.T) {
	// Partial grids over object ranges [0,2) and [2,4) merge into the
	// same structure a serial build produces.
	pts := [][]geom.Point{
		{geom.Pt(0.5, 0.5, 0.5)},
		{geom.Pt(0.6, 0.6, 0.6), geom.Pt(5.5, 0.5, 0.5)},
		{geom.Pt(0.7, 0.7, 0.7)},
		{geom.Pt(5.6, 0.6, 0.6)},
	}
	build := func(lo, hi int) (*SmallGrid, *LargeGrid) {
		sg := NewSmallGrid(1)
		lg := NewLargeGrid(2, 8)
		for i := lo; i < hi; i++ {
			for j, p := range pts[i] {
				sg.Add(i, p)
				lg.Add(i, j, p)
			}
		}
		return sg, lg
	}
	s1, l1 := build(0, 2)
	s2, l2 := build(2, 4)
	s1.MergeFrom(s2)
	l1.MergeFrom(l2)
	sFull, lFull := build(0, 4)

	if s1.Len() != sFull.Len() || l1.Len() != lFull.Len() {
		t.Fatalf("cell counts differ: %d/%d vs %d/%d", s1.Len(), l1.Len(), sFull.Len(), lFull.Len())
	}
	sFull.ForEach(func(k Key, c *SmallCell) {
		mc := s1.Cell(k)
		if mc == nil {
			t.Fatalf("merged small grid missing %v", k)
		}
		if got, want := mc.B.Bits(), c.B.Bits(); len(got) != len(want) {
			t.Fatalf("cell %v bits %v vs %v", k, got, want)
		}
	})
	lFull.ForEach(func(k Key, c *LargeCell) {
		mc := l1.Cell(k)
		if mc == nil {
			t.Fatalf("merged large grid missing %v", k)
		}
		if !reflect.DeepEqual(mc.Objs, c.Objs) {
			t.Fatalf("cell %v postings %v vs %v", k, mc.Objs, c.Objs)
		}
	})
}

func TestNeighborhoodRadius(t *testing.T) {
	k := Key{1, 2, 3}
	for _, radius := range []int32{0, 1, 2} {
		got := k.NeighborhoodRadius(nil, radius)
		side := int(2*radius + 1)
		if len(got) != side*side*side {
			t.Fatalf("radius %d: %d keys, want %d", radius, len(got), side*side*side)
		}
		seen := map[Key]bool{}
		for _, nk := range got {
			if seen[nk] {
				t.Fatalf("radius %d: duplicate %v", radius, nk)
			}
			seen[nk] = true
		}
		if !seen[k] {
			t.Fatalf("radius %d: self missing", radius)
		}
	}
}

func TestComputeAdjRadiusMatchesAdjAtOne(t *testing.T) {
	g := NewLargeGrid(1, 8)
	g.Add(0, 0, geom.Pt(0.5, 0.5, 0.5))
	g.Add(1, 0, geom.Pt(1.5, 0.5, 0.5))
	g.Add(2, 0, geom.Pt(3.5, 0.5, 0.5)) // two cells away
	k := g.KeyFor(geom.Pt(0.5, 0.5, 0.5))
	adj1, lookups := g.ComputeAdjRadius(k, 1)
	if lookups != 27 {
		t.Fatalf("lookups = %d", lookups)
	}
	want, _ := g.ComputeAdj(k)
	if !reflect.DeepEqual(adj1.Bits(), want.Bits()) {
		t.Fatalf("radius-1 union %v vs ComputeAdj %v", adj1.Bits(), want.Bits())
	}
	adj3, lookups3 := g.ComputeAdjRadius(k, 3)
	if lookups3 != 343 {
		t.Fatalf("radius-3 lookups = %d", lookups3)
	}
	if got := adj3.Bits(); len(got) != 3 {
		t.Fatalf("radius-3 union = %v", got)
	}
}

func TestGridAccessorsAndSizes(t *testing.T) {
	g := NewLargeGrid(3, 8)
	if g.Width() != 3 {
		t.Fatal("width")
	}
	g.Add(0, 0, geom.Pt(1, 1, 1))
	g.Add(1, 0, geom.Pt(1.5, 1, 1))
	if g.SizeBytes() <= 0 {
		t.Fatal("SizeBytes")
	}
	g.ComputeAdj(g.KeyFor(geom.Pt(1, 1, 1)))
	szWithAdj := g.SizeBytes()
	if szWithAdj <= 0 {
		t.Fatal("SizeBytes with adj")
	}
	cards := 0
	g.ForEachCard(func(card int) { cards += card })
	if cards != 2 {
		t.Fatalf("ForEachCard sum = %d", cards)
	}
}

func TestMergeFromDisjointAndOverlapping(t *testing.T) {
	// Small grid: overlapping cell ORs bitsets; disjoint cell adopted.
	a := NewSmallGrid(1)
	b := NewSmallGrid(1)
	a.Add(0, geom.Pt(0.5, 0.5, 0.5))
	b.Add(2, geom.Pt(0.5, 0.5, 0.5)) // same cell
	b.Add(3, geom.Pt(9.5, 0.5, 0.5)) // new cell
	a.MergeFrom(b)
	shared := a.Cell(KeyFor(geom.Pt(0.5, 0.5, 0.5), 1))
	if got := shared.B.Bits(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("merged bits = %v", got)
	}
	if shared.FirstObject() != 0 {
		t.Fatalf("first = %d", shared.FirstObject())
	}
	adopted := a.Cell(KeyFor(geom.Pt(9.5, 0.5, 0.5), 1))
	if adopted == nil || adopted.FirstObject() != 3 {
		t.Fatal("adopted cell wrong")
	}
	// Large grid overlapping postings stay sorted.
	la := NewLargeGrid(2, 8)
	lb := NewLargeGrid(2, 8)
	la.Add(0, 0, geom.Pt(0.5, 0.5, 0.5))
	lb.Add(1, 0, geom.Pt(0.6, 0.6, 0.6))
	lb.Add(2, 0, geom.Pt(0.7, 0.7, 0.7))
	la.MergeFrom(lb)
	c := la.Cell(la.KeyFor(geom.Pt(0.5, 0.5, 0.5)))
	if !reflect.DeepEqual(c.Objs, []int32{0, 1, 2}) {
		t.Fatalf("postings after merge = %v", c.Objs)
	}
}
