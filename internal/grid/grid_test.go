package grid

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mio/internal/bitmap"
	"mio/internal/data"
	"mio/internal/geom"
	"mio/internal/parallel"
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

// dataset wraps point slices as a dataset, object i holding objs[i].
func dataset(objs ...[]geom.Point) *data.Dataset {
	ds := &data.Dataset{}
	for i, pts := range objs {
		ds.Objects = append(ds.Objects, data.Object{ID: i, Pts: pts})
	}
	return ds
}

// buildLarge builds the large grid alone, on one worker, unfiltered.
func buildLarge(ds *data.Dataset, width float64) *LargeGrid {
	g, _, _ := Build(NewPoints(ds), width, 0, nil, 0, 1, nil, nil, nil)
	return g
}

// refPosting is one posting of the reference inverted index: an
// object's points in one cell with their indices, in point order.
type refPosting struct {
	pts []geom.Point
	idx []int32
}

// bkey addresses a cell of the reference index: a time bucket and a
// key.
type bkey struct {
	b int32
	k Key
}

// less is the directory order: bucket, then Key.Less.
func (a bkey) less(o bkey) bool { return a.b < o.b || a.b == o.b && a.k.Less(o.k) }

// inBucket returns the keys as cells of bucket b.
func inBucket(b int32, keys []Key) []bkey {
	out := make([]bkey, len(keys))
	for i, k := range keys {
		out[i] = bkey{b, k}
	}
	return out
}

// around is the neighbourhood Neighbors reports for the cell of key k
// in bucket b: per bucket b+dt, |dt| ≤ halo, in that order, k and its
// 26 neighbours in Key.NeighborsAndSelf order.
func around(b int32, k Key, halo int32) []bkey {
	var out []bkey
	for dt := -halo; dt <= halo; dt++ {
		out = append(out, inBucket(b+dt, k.NeighborsAndSelf(nil))...)
	}
	return out
}

// bucketAt is the bucket of point number ord in a build over bucket.
func bucketAt(bucket []int32, ord int) int32 {
	if bucket == nil {
		return 0
	}
	return bucket[ord]
}

// refIndex is the reference the sort-built grids are held against: an
// inverted index built with plain maps, one point at a time.
type refIndex map[bkey]map[int]*refPosting

func reference(ds *data.Dataset, width float64, keep func(obj, pt int) bool, bucket []int32) refIndex {
	ref := refIndex{}
	ord := -1
	for i := range ds.Objects {
		for j, p := range ds.Objects[i].Pts {
			ord++
			if keep != nil && !keep(i, j) {
				continue
			}
			k := bkey{bucketAt(bucket, ord), KeyFor(p, width)}
			if ref[k] == nil {
				ref[k] = map[int]*refPosting{}
			}
			if ref[k][i] == nil {
				ref[k][i] = &refPosting{}
			}
			ref[k][i].pts = append(ref[k][i].pts, p)
			ref[k][i].idx = append(ref[k][i].idx, int32(j))
		}
	}
	return ref
}

// objects returns the ascending ids of the objects in the given cells.
func (ref refIndex) objects(cells []bkey) []int {
	seen := map[int]bool{}
	for _, k := range cells {
		for obj := range ref[k] {
			seen[obj] = true
		}
	}
	out := make([]int, 0, len(seen))
	for obj := range seen {
		out = append(out, obj)
	}
	sort.Ints(out)
	return out
}

// bitsOf decodes c, a set of object ids below n.
func bitsOf(c *bitmap.Compressed, n int) []int {
	s := bitmap.NewScratch(n)
	s.OrCompressed(c)
	out := []int{}
	s.ForEach(func(b int) bool { out = append(out, b); return true })
	return out
}

// pointCells maps every point a large grid holds, as (object, index
// within the object), to its cell, read off the postings.
func pointCells(g *LargeGrid) map[[2]int]int {
	at := map[[2]int]int{}
	for c := 0; c < g.Len(); c++ {
		for p := int(g.CellOff[c]); p < int(g.CellOff[c+1]); p++ {
			for _, idx := range g.PointIdx(p) {
				at[[2]int{int(g.Objs[p]), int(idx)}] = c
			}
		}
	}
	return at
}

func ints(ids []int32) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// checkDirectory holds a grid's directory against the reference's
// cells: the same (bucket, key) pairs, in strictly increasing directory
// order, each found at its own index, no absent key found, and each
// bucket's cells one range.
func checkDirectory(t *testing.T, d *directory, ref refIndex) {
	t.Helper()
	if d.Len() != len(ref) {
		t.Fatalf("cells = %d, want %d", d.Len(), len(ref))
	}
	perBucket := map[int32]int{}
	for c := 0; c < d.Len(); c++ {
		bk := bkey{d.Bucket(c), d.Key(c)}
		if ref[bk] == nil {
			t.Fatalf("cell %d has key %v in bucket %d, which holds no point", c, bk.k, bk.b)
		}
		if c > 0 {
			if prev := (bkey{d.Bucket(c - 1), d.Key(c - 1)}); !prev.less(bk) {
				t.Fatalf("directory not in (bucket, Key.Less) order at %d: %v then %v", c, prev, bk)
			}
		}
		if got := d.Find(bk.b, bk.k); got != c {
			t.Fatalf("Find(%v) = %d, want %d", bk, got, c)
		}
		for _, nk := range bk.k.Neighbors(nil) {
			if ref[bkey{bk.b, nk}] == nil && d.Find(bk.b, nk) != -1 {
				t.Fatalf("Find(%d, %v) hit for an empty cell", bk.b, nk)
			}
		}
		perBucket[bk.b]++
	}
	if len(d.bucketID) != len(perBucket) {
		t.Fatalf("%d bucket ranges for %d buckets", len(d.bucketID), len(perBucket))
	}
	for b, n := range perBucket {
		from, to := d.cells(b)
		if to-from != n {
			t.Fatalf("bucket %d: cells [%d, %d) for %d cells", b, from, to, n)
		}
		for c := from; c < to; c++ {
			if d.Bucket(c) != b {
				t.Fatalf("cell %d in bucket %d's range reports bucket %d", c, b, d.Bucket(c))
			}
		}
	}
	if from, to := d.cells(math.MaxInt32); from != to {
		t.Fatalf("a bucket no point fell in has cells [%d, %d)", from, to)
	}
}

// checkLarge holds every observable of a large grid against the
// reference.
func checkLarge(t *testing.T, g *LargeGrid, ds *data.Dataset, width float64, ref refIndex, keep func(obj, pt int) bool, bucket []int32) {
	t.Helper()
	checkDirectory(t, &g.directory, ref)
	if len(g.CellOff) != g.Len()+1 || g.CellOff[0] != 0 || int(g.CellOff[g.Len()]) != len(g.Objs) {
		t.Fatalf("CellOff spans [%d, %d] for %d postings", g.CellOff[0], g.CellOff[g.Len()], len(g.Objs))
	}
	if len(g.Off) != len(g.Objs)+1 || g.Off[0] != 0 || int(g.Off[len(g.Objs)]) != len(g.Idx) {
		t.Fatalf("Off spans [%d, %d] for %d points", g.Off[0], g.Off[len(g.Objs)], len(g.Idx))
	}
	for c := 0; c < g.Len(); c++ {
		k := bkey{g.Bucket(c), g.Key(c)}
		want := ref[k]
		objs := g.CellObjs(c)
		if !reflect.DeepEqual(ints(objs), ref.objects([]bkey{k})) {
			t.Fatalf("cell %v: b(c) = %v, want %v", k, objs, ref.objects([]bkey{k}))
		}
		points := 0
		for i, obj := range objs {
			p := int(g.CellOff[c]) + i
			if i > 0 && obj <= objs[i-1] {
				t.Fatalf("cell %v: object run not strictly increasing: %v", k, objs)
			}
			w := want[int(obj)]
			xs, ys, zs := g.Points(p)
			if len(xs) != len(w.pts) || len(ys) != len(xs) || len(zs) != len(xs) {
				t.Fatalf("cell %v obj %d: %d points, want %d", k, obj, len(xs), len(w.pts))
			}
			for j, q := range w.pts {
				if geom.Pt(xs[j], ys[j], zs[j]) != q {
					t.Fatalf("cell %v obj %d point %d: got %v, want %v", k, obj, j, geom.Pt(xs[j], ys[j], zs[j]), q)
				}
			}
			if !reflect.DeepEqual(g.PointIdx(p), w.idx) {
				t.Fatalf("cell %v obj %d: Idx = %v, want %v", k, obj, g.PointIdx(p), w.idx)
			}
			points += len(w.pts)
		}
		if got := int(g.Off[g.CellOff[c+1]] - g.Off[g.CellOff[c]]); got != points {
			t.Fatalf("cell %v: postings span %d points, want %d", k, got, points)
		}

		// The neighbourhood, its union, and the ways to ask for it.
		var neigh [MaxNeighbors]int32
		cells := around(k.b, k.k, g.halo)
		if n := g.Neighbors(c, &neigh); n != len(cells) {
			t.Fatalf("cell %v: Neighbors covers %d cells, want (2·halo+1)·27 = %d", k, n, len(cells))
		}
		for i, nk := range cells {
			if int(neigh[i]) != g.Find(nk.b, nk.k) {
				t.Fatalf("cell %v: Neighbors[%d] = %d, want Find(%v) = %d", k, i, neigh[i], nk, g.Find(nk.b, nk.k))
			}
		}
		union := ref.objects(cells)
		if bucket == nil {
			if got := bitsOf(g.ComputeAdjRadius(k.k, 1), ds.N()); !reflect.DeepEqual(got, union) {
				t.Fatalf("cell %v: ComputeAdjRadius(1) = %v, want the 27-cell union %v", k, got, union)
			}
		}
		if g.Adj(c) != nil {
			t.Fatalf("cell %v: b^adj set before anything asked for it", k)
		}
		adj, fresh := g.ComputeAdj(c)
		if !fresh || !reflect.DeepEqual(bitsOf(adj, ds.N()), union) {
			t.Fatalf("cell %v: ComputeAdj = %v (fresh %v), want %v", k, bitsOf(adj, ds.N()), fresh, union)
		}
		if again, fresh := g.ComputeAdj(c); fresh || again != adj || g.Adj(c) != adj {
			t.Fatalf("cell %v: b^adj not memoised", k)
		}
		if bucket == nil && c%7 == 0 {
			want := ref.objects(inBucket(0, k.k.NeighborhoodRadius(nil, 2)))
			if got := bitsOf(g.ComputeAdjRadius(k.k, 2), ds.N()); !reflect.DeepEqual(got, want) {
				t.Fatalf("cell %v: ComputeAdjRadius(2) = %v, want %v", k, got, want)
			}
		}
	}
	// Every kept point is in the one cell its key names, a dropped one
	// in none.
	at, ord, kept := pointCells(g), -1, 0
	for i := range ds.Objects {
		for j, p := range ds.Objects[i].Pts {
			ord++
			got, ok := at[[2]int{i, j}]
			if keep != nil && !keep(i, j) {
				if ok {
					t.Fatalf("dropped point (%d, %d) mapped to cell %d", i, j, got)
				}
				continue
			}
			kept++
			if want := g.Find(bucketAt(bucket, ord), KeyFor(p, width)); !ok || got != want {
				t.Fatalf("point (%d, %d) in cell %d (mapped %v), want %d", i, j, got, ok, want)
			}
		}
	}
	if len(at) != kept || len(g.Idx) != kept {
		t.Fatalf("%d points in postings, %d in Idx, want %d", len(at), len(g.Idx), kept)
	}
	checkCopies(t, g, ds)
}

// checkCopies holds the grid's copies against it: a lean copy drops
// the coordinates alone, and Gather restores them.
func checkCopies(t *testing.T, g *LargeGrid, ds *data.Dataset) {
	t.Helper()
	lean := g.Lean()
	if lean.Xs != nil || lean.SizeBytes() != g.SizeBytes()-24*len(g.Idx) {
		t.Fatalf("lean copy: %d coordinates, %d bytes of %d", len(lean.Xs), lean.SizeBytes(), g.SizeBytes())
	}
	if back := lean.Gather(ds); !reflect.DeepEqual([][]float64{back.Xs, back.Ys, back.Zs}, [][]float64{g.Xs, g.Ys, g.Zs}) {
		t.Fatal("Gather does not restore the coordinates")
	}
}

// checkSmall holds a small grid against the reference: the same cells,
// each with the ascending run of its distinct objects.
func checkSmall(t *testing.T, g *SmallGrid, ref refIndex) {
	t.Helper()
	checkDirectory(t, &g.directory, ref)
	if len(g.CellOff) != g.Len()+1 || g.CellOff[0] != 0 || int(g.CellOff[g.Len()]) != len(g.Objs) {
		t.Fatalf("CellOff spans [%d, %d] for %d run entries", g.CellOff[0], g.CellOff[g.Len()], len(g.Objs))
	}
	for c := 0; c < g.Len(); c++ {
		if k := (bkey{g.Bucket(c), g.Key(c)}); !reflect.DeepEqual(ints(g.CellObjs(c)), ref.objects([]bkey{k})) {
			t.Fatalf("small cell %v: b(c) = %v, want %v", k, g.CellObjs(c), ref.objects([]bkey{k}))
		}
	}
}

// TestFlatIndexAgainstReference is the differential test of the one
// grid builder: every grid Build returns must be, observable for
// observable, the inverted index a point-at-a-time map build gives —
// cells, object runs, postings in point order, directory order, point
// to cell, every neighbourhood and every b^adj — however many workers
// quantised the points, whether or not a filter dropped some, and with
// or without the time-bucket axis.
func TestFlatIndexAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	walk := func(n, steps int, origin, span, step float64) *data.Dataset {
		objs := make([][]geom.Point, n)
		for i := range objs {
			// Path-like, so consecutive points share cells.
			p := geom.Pt(origin+rng.Float64()*span, origin+rng.Float64()*span, origin+rng.Float64()*span)
			for j := 0; j < 1+rng.Intn(steps); j++ {
				p = p.Add(geom.Pt(rng.NormFloat64()*step, rng.NormFloat64()*step, rng.NormFloat64()*step))
				objs[i] = append(objs[i], p)
			}
		}
		return dataset(objs...)
	}
	// Points exactly on cell boundaries, either side of zero: every
	// coordinate is a multiple of the width or half of it.
	var lattice [][]geom.Point
	for i := 0; i < 40; i++ {
		var pts []geom.Point
		for j := 0; j < 6; j++ {
			pts = append(pts, geom.Pt(float64(rng.Intn(13)-6), float64(rng.Intn(13)-6), float64(rng.Intn(5)-2)))
		}
		lattice = append(lattice, pts)
	}
	// Planar, at the far end of the int32 key range.
	var huge [][]geom.Point
	for i := 0; i < 60; i++ {
		x, y := 1e9-float64(rng.Intn(40)), -1e9+float64(rng.Intn(40))
		if i%2 == 1 {
			x, y = -x, -y
		}
		var pts []geom.Point
		for j := 0; j < 5; j++ {
			pts = append(pts, geom.Pt(x+rng.Float64()*3, y+rng.Float64()*3, 0))
		}
		huge = append(huge, pts)
	}
	everyThird := func(obj, pt int) bool { return obj%5 != 0 && (obj+pt)%3 != 0 }

	type row struct {
		name   string
		ds     *data.Dataset
		r      float64
		width  float64 // large-grid width; 0 means LargeWidth(r)
		keep   func(obj, pt int) bool
		bucket []int32
		halo   int32
	}
	cases := []row{
		// The datasets of core's testDatasets, at a middle radius each.
		{name: "neuron", r: 5, ds: data.GenNeuron(data.NeuronConfig{
			N: 40, M: 120, Clusters: 4, FieldSize: 250, ClusterStd: 25, StepLen: 1.5, Branches: 4, Seed: 11})},
		{name: "bird", r: 40, ds: data.GenTrajectory(data.TrajectoryConfig{
			N: 120, M: 30, Groups: 6, FieldSize: 4000, Speed: 25, FollowStd: 10, Solo: 0.4, Seed: 12})},
		{name: "syn", r: 12, ds: data.GenPowerLaw(data.PowerLawConfig{
			N: 300, M: 6, Alpha: 1.5, Clusters: 30, FieldSize: 8000, HubStd: 6, Seed: 13})},
		{name: "uniform", r: 10, ds: data.GenUniform(data.UniformConfig{
			N: 150, M: 8, FieldSize: 500, Spread: 12, Seed: 14})},
		{name: "sparse", r: 10, ds: data.GenUniformSparse(data.UniformSparseConfig{
			N: 300, M: 3, FieldSize: 1500, Spread: 15, Seed: 15})},
		{name: "onecell", r: 6, ds: data.GenOneCell(data.OneCellConfig{N: 60, M: 20, Side: 6, Seed: 16})},
		{name: "paths", r: 2, ds: walk(120, 30, 0, 30, 1)},
		{name: "negative", r: 3.3, ds: walk(80, 20, -25, 30, 1.5)},
		{name: "boundary", r: 2, width: 1, ds: dataset(lattice...)},
		{name: "pruned", r: 2, ds: walk(90, 25, -10, 30, 1), keep: everyThird},
		{name: "huge", r: 1, ds: dataset(huge...)},
	}
	// Bucketed builds (Appendix B's time axis): each object starts in a
	// bucket either side of zero and moves on to the next one now and
	// then, as timestamps would put it.
	timed := walk(100, 25, -10, 20, 1)
	var stamps []int32
	for i := range timed.Objects {
		b := int32(rng.Intn(7) - 3)
		for range timed.Objects[i].Pts {
			if rng.Intn(5) == 0 {
				b++
			}
			stamps = append(stamps, b)
		}
	}
	cases = append(cases,
		row{name: "bucketed/halo=1", r: 2, ds: timed, bucket: stamps, halo: 1},
		row{name: "bucketed/halo=0", r: 2, ds: timed, bucket: stamps},
		row{name: "bucketed/pruned", r: 2, ds: timed, keep: everyThird, bucket: stamps, halo: 1})
	for _, tc := range cases {
		width := tc.width
		if width == 0 {
			width = LargeWidth(tc.r)
		}
		smallWidth := SmallWidth(tc.r, 3)
		refLarge := reference(tc.ds, width, tc.keep, tc.bucket)
		for _, workers := range []int{1, 2, 3, 7} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				var polls atomic.Int64
				large, small, complete := Build(NewPoints(tc.ds), width, smallWidth, tc.bucket, tc.halo, workers, tc.keep, func() bool { polls.Add(1); return false }, nil)
				if !complete {
					t.Fatal("Build: not complete")
				}
				if got := int(polls.Load()); got != tc.ds.N()/128 {
					t.Fatalf("stop polled %d times over %d objects, want once per 128", got, tc.ds.N())
				}
				checkLarge(t, large, tc.ds, width, refLarge, tc.keep, tc.bucket)
				// The reference keys every point with KeyFor(p, smallWidth).
				checkSmall(t, small, reference(tc.ds, smallWidth, tc.keep, tc.bucket))
				// Without the large grid the small grid's sweep polls.
				polls.Store(0)
				large, again, complete := Build(NewPoints(tc.ds), 0, smallWidth, tc.bucket, tc.halo, workers, tc.keep, func() bool { polls.Add(1); return false }, nil)
				if large != nil || !complete || int(polls.Load()) != tc.ds.N()/128 || !reflect.DeepEqual(again, small) {
					t.Fatalf("Build without the large grid: large %v, complete %v, %d polls, small grids equal %v", large != nil, complete, polls.Load(), reflect.DeepEqual(again, small))
				}
			})
		}
	}
}

// TestBuildStops pins the cancellation poll: once stop reports true the
// sweep ends, complete is false and the grids hold only what the
// objects before the poll mapped.
func TestBuildStops(t *testing.T) {
	objs := make([][]geom.Point, 600)
	for i := range objs {
		objs[i] = []geom.Point{geom.Pt(float64(i), 0, 0), geom.Pt(float64(i), 1, 0)}
	}
	ds := dataset(objs...)
	polls := 0
	large, small, complete := Build(NewPoints(ds), 1, 0.5, nil, 0, 1, nil, func() bool { polls++; return polls == 2 }, nil)
	if complete {
		t.Fatal("a stopped build reported complete")
	}
	// The second poll is at object 255: objects 0..254 are mapped.
	ref := reference(dataset(objs[:255]...), 1, nil, nil)
	checkDirectory(t, &large.directory, ref)
	if len(large.Idx) != 2*255 || small.Len() != 2*255 {
		t.Fatalf("stopped build mapped %d points into %d small cells, want %d", len(large.Idx), small.Len(), 2*255)
	}
	at := pointCells(large)
	if _, ok := at[[2]int{254, 1}]; !ok {
		t.Fatal("the last point before the stop is not mapped")
	}
	if _, ok := at[[2]int{255, 0}]; ok {
		t.Fatal("the first point after the stop is mapped")
	}
	// Without the large grid the small grid's sweep is the one cut.
	polls = 0
	if large, small, complete := Build(NewPoints(ds), 0, 0.5, nil, 0, 1, nil, func() bool { polls++; return polls == 2 }, nil); large != nil || complete || small.Len() != 2*255 {
		t.Fatalf("stopped small-grid build: large %v, complete %v, %d small cells, want %d", large != nil, complete, small.Len(), 2*255)
	}
}

// TestSmallGridDistinctRecords holds the small grid, whose sweep keeps
// one record per run of an object's points in one cell, against the
// reference built from every point: on slow walks, where most
// consecutive points share a cell, with and without a filter and the
// time axis, quantised by one and by two workers, built alone (a query
// whose ⌈r⌉ entry holds what it needs of the large grid, whose record
// buffers the shortened sweep sizes) and after the large grid (whose
// buffers are longer than its records), and cut short by stop.
func TestSmallGridDistinctRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	objs := make([][]geom.Point, 300)
	var stamps []int32
	for i := range objs {
		p := geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
		b := int32(rng.Intn(5) - 2)
		for j := 0; j < 5+rng.Intn(40); j++ {
			p = p.Add(geom.Pt(rng.NormFloat64()*0.3, rng.NormFloat64()*0.3, rng.NormFloat64()*0.3))
			objs[i] = append(objs[i], p)
			if rng.Intn(8) == 0 {
				b++
			}
			stamps = append(stamps, b)
		}
	}
	ds := dataset(objs...)
	const width = 1.5
	everyThird := func(obj, pt int) bool { return obj%5 != 0 && (obj+pt)%3 != 0 }
	for _, tc := range []struct {
		name   string
		keep   func(obj, pt int) bool
		bucket []int32
	}{
		{name: "spatial"},
		{name: "pruned", keep: everyThird},
		{name: "bucketed", bucket: stamps},
		{name: "bucketed/pruned", keep: everyThird, bucket: stamps},
	} {
		ref := reference(ds, width, tc.keep, tc.bucket)
		// One record per run of an object's kept points in one cell.
		runs, kept, ord := 0, 0, -1
		for i := range ds.Objects {
			prev := bkey{b: math.MinInt32}
			first := true
			for j, p := range ds.Objects[i].Pts {
				ord++
				if tc.keep != nil && !tc.keep(i, j) {
					continue
				}
				kept++
				if k := (bkey{bucketAt(tc.bucket, ord), KeyFor(p, width)}); first || k != prev {
					runs++
					prev, first = k, false
				}
			}
		}
		if 4*runs > 3*kept {
			t.Fatalf("%s: %d runs of %d points: the walks repeat too few cells to test the sweep", tc.name, runs, kept)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				pts := NewPoints(ds)
				src := points{Points: pts, bucket: tc.bucket}
				ranges := parallel.Ranges(pts.weights, workers)
				// Into windows of one buffer, into buffers reserved for
				// a quarter of the runs (they fill and grow) and into
				// buffers with room for every point.
				for _, bufs := range [][][]rec{
					src.windows(make([]rec, len(src.objOf)), ranges),
					src.reserve(ranges, int64(runs/4)),
					src.reserve(ranges, 0),
				} {
					src.quantise(bufs, width, ranges, true, tc.keep, nil)
					if m := len(join(bufs, nil)); m != runs {
						t.Fatalf("the small grid's sweep kept %d records, want one per run: %d", m, runs)
					}
				}
				// A build of both grids notes the records its small sweep
				// kept; one without the large grid reserves by that note,
				// by too few, or, with none, for every point.
				var hint atomic.Int64
				_, after, _ := Build(pts, 2*width, width, tc.bucket, 0, workers, tc.keep, nil, &hint)
				checkSmall(t, after, ref)
				if got := hint.Load(); got != int64(runs) {
					t.Fatalf("the build notes %d small records, want %d", got, runs)
				}
				for _, note := range []int64{int64(runs), int64(runs / 4), 0} {
					hint.Store(note)
					_, alone, complete := Build(pts, 0, width, tc.bucket, 0, workers, tc.keep, nil, &hint)
					if !complete {
						t.Fatal("Build: not complete")
					}
					checkSmall(t, alone, ref)
				}

				// Stopped at the first poll: the large grid holds what
				// was mapped, and the small grid the same points.
				large, small, complete := Build(pts, 2*width, width, tc.bucket, 0, workers, tc.keep, func() bool { return true }, nil)
				if complete {
					t.Fatal("a stopped build reported complete")
				}
				at := pointCells(large)
				if len(at) == 0 || len(at) == kept {
					t.Fatalf("the stopped build mapped %d of %d points", len(at), kept)
				}
				mapped := func(obj, pt int) bool { _, ok := at[[2]int{obj, pt}]; return ok }
				checkSmall(t, small, reference(ds, width, mapped, tc.bucket))
				if workers == 1 {
					// Without the large grid the small grid's sweep is
					// the one cut, at object 127.
					_, small, _ := Build(pts, 0, width, tc.bucket, 0, 1, tc.keep, func() bool { return true }, nil)
					first := func(obj, pt int) bool { return obj < 127 && (tc.keep == nil || tc.keep(obj, pt)) }
					checkSmall(t, small, reference(ds, width, first, tc.bucket))
				}
			})
		}
	}
}

func TestComputeAdj(t *testing.T) {
	// Objects 0,1 in adjacent cells; object 2 far away.
	g := buildLarge(dataset(
		[]geom.Point{geom.Pt(0.5, 0.5, 0.5)},
		[]geom.Point{geom.Pt(1.5, 0.5, 0.5)},
		[]geom.Point{geom.Pt(50, 50, 50)},
	), 1)

	c0 := g.Find(0, KeyFor(geom.Pt(0.5, 0.5, 0.5), 1))
	adj, fresh := g.ComputeAdj(c0)
	if !fresh {
		t.Fatal("first ComputeAdj not fresh")
	}
	if got := bitsOf(adj, 3); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("adj bits = %v", got)
	}
	if g.Adj(c0) != adj {
		t.Fatal("Adj not memoised")
	}
	adj2, fresh2 := g.ComputeAdj(c0)
	if fresh2 || adj2 != adj {
		t.Fatal("second ComputeAdj recomputed")
	}
	adjFar, _ := g.ComputeAdj(g.Find(0, KeyFor(geom.Pt(50, 50, 50), 1)))
	if got := bitsOf(adjFar, 3); len(got) != 1 || got[0] != 2 {
		t.Fatalf("isolated adj = %v", got)
	}
	if g.Find(0, Key{99, 99, 99}) != -1 {
		t.Fatal("Find hit a missing cell")
	}
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
	g := buildLarge(dataset(
		[]geom.Point{geom.Pt(0.5, 0.5, 0.5)},
		[]geom.Point{geom.Pt(1.5, 0.5, 0.5)},
		[]geom.Point{geom.Pt(3.5, 0.5, 0.5)}, // two cells away
	), 1)
	k := KeyFor(geom.Pt(0.5, 0.5, 0.5), 1)
	adj1 := g.ComputeAdjRadius(k, 1)
	want, _ := g.ComputeAdj(g.Find(0, k))
	if !reflect.DeepEqual(bitsOf(adj1, 3), bitsOf(want, 3)) {
		t.Fatalf("radius-1 union %v vs ComputeAdj %v", bitsOf(adj1, 3), bitsOf(want, 3))
	}
	if got := bitsOf(g.ComputeAdjRadius(k, 3), 3); len(got) != 3 {
		t.Fatalf("radius-3 union = %v", got)
	}
	// The centre need not be a cell of the grid.
	if got := bitsOf(g.ComputeAdjRadius(Key{2, 0, 0}, 1), 3); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("union around an empty cell = %v", got)
	}
}

// TestGridAccessorsAndSizes pins the O(1) size accounting: array
// lengths plus the b^adj memoised so far, headers and words.
func TestGridAccessorsAndSizes(t *testing.T) {
	ds := dataset(
		[]geom.Point{geom.Pt(1, 1, 1)},
		[]geom.Point{geom.Pt(1.5, 1, 1)},
	)
	g, small, _ := Build(NewPoints(ds), 3, 0.5, nil, 0, 1, nil, nil, nil)
	before := g.SizeBytes()
	if before <= 0 {
		t.Fatal("SizeBytes")
	}
	adj, _ := g.ComputeAdj(g.Find(0, KeyFor(geom.Pt(1, 1, 1), 3)))
	if got := g.SizeBytes(); got != before+adjHeaderBytes+adj.SizeBytes() {
		t.Fatalf("SizeBytes with adj = %d, want %d + %d + %d", got, before, adjHeaderBytes, adj.SizeBytes())
	}
	if cards := len(g.CellObjs(0)); g.Len() != 1 || cards != 2 {
		t.Fatalf("%d cells, first with %d objects", g.Len(), cards)
	}
	if small.Len() != 2 || small.SizeBytes() <= 0 || small.UncompressedSizeBytes(1000) <= small.SizeBytes() {
		t.Errorf("small grid: %d cells, %d B, %d B dense", small.Len(), small.SizeBytes(), small.UncompressedSizeBytes(1000))
	}
}

// TestComputeAdjConcurrent races the lazy b^adj publish: whichever
// goroutine wins a cell, every caller sees one pointer per cell, exactly
// one call per cell reports fresh, and the sizes add up once.
func TestComputeAdjConcurrent(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 150, M: 8, FieldSize: 500, Spread: 12, Seed: 14})
	g := buildLarge(ds, 10)
	before := g.SizeBytes()
	const workers = 4
	got := make([][]*bitmap.Compressed, workers)
	var fresh atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*bitmap.Compressed, g.Len())
			for i := 0; i < g.Len(); i++ {
				c := (i + w*g.Len()/workers) % g.Len()
				adj, f := g.ComputeAdj(c)
				if f {
					fresh.Add(1)
				}
				got[w][c] = adj
			}
		}(w)
	}
	wg.Wait()
	if int(fresh.Load()) != g.Len() {
		t.Fatalf("%d fresh computations for %d cells", fresh.Load(), g.Len())
	}
	adjBytes := 0
	for c := 0; c < g.Len(); c++ {
		for w := range got {
			if got[w][c] != g.Adj(c) {
				t.Fatalf("cell %d: worker %d holds a b^adj that was not the one published", c, w)
			}
		}
		adjBytes += adjHeaderBytes + g.Adj(c).SizeBytes()
	}
	if g.SizeBytes() != before+adjBytes {
		t.Fatalf("SizeBytes = %d, want %d + %d", g.SizeBytes(), before, adjBytes)
	}
}

// TestGridCollectableAfterUse pins that a grid whose b^adj was asked for
// is garbage at the first collection after its owner lets go of it.
// Package sync keeps every Pool that has been used in a global list
// until the second collection after; a Pool embedded in the grid (not
// behind a pointer) made that list hold the whole grid, so every
// query's index outlived the query by a GC cycle and the heap goal fed
// on its own garbage.
func TestGridCollectableAfterUse(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 50, M: 8, FieldSize: 200, Spread: 12, Seed: 3})
	freed := make(chan struct{})
	func() {
		g := buildLarge(ds, 10)
		for c := 0; c < g.Len(); c++ {
			g.ComputeAdj(c)
		}
		runtime.SetFinalizer(g, func(*LargeGrid) { close(freed) })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("a used grid survived the collection after it was dropped")
	}
}

// neighbourhoodCase is a large grid whose neighbourhoods a test walks.
type neighbourhoodCase struct {
	name   string
	ds     *data.Dataset
	width  float64
	bucket []int32
	halo   int32
}

// neighbourhoodCases are grids whose neighbourhoods are held against
// directory.columns: 3-D walks whose columns hold several cells and Z
// gaps of one and two cells, a planar set (one cell per column),
// bucketed builds at halo 0 and 1, and cells on the edges of the int32
// key range, whose neighbours fall off it.
func neighbourhoodCases() []neighbourhoodCase {
	rng := rand.New(rand.NewSource(47))
	walk := func(n, steps int, span, step, zStep float64) *data.Dataset {
		objs := make([][]geom.Point, n)
		for i := range objs {
			p := geom.Pt(rng.Float64()*span, rng.Float64()*span, rng.Float64()*span)
			for j := 0; j < 1+rng.Intn(steps); j++ {
				p = p.Add(geom.Pt(rng.NormFloat64()*step, rng.NormFloat64()*step, rng.NormFloat64()*zStep))
				objs[i] = append(objs[i], p)
			}
		}
		return dataset(objs...)
	}
	planar := walk(120, 30, 40, 1, 0)
	for i := range planar.Objects {
		for j := range planar.Objects[i].Pts {
			planar.Objects[i].Pts[j].Z = 0.5
		}
	}
	// Keys at and next to ±(2³¹ − 1) and −2³¹ on every axis.
	const top, bottom = math.MaxInt32 + 0.5, math.MinInt32 + 0.5
	var edge [][]geom.Point
	for i := 0; i < 40; i++ {
		var pts []geom.Point
		for j := 0; j < 4; j++ {
			at := func() float64 {
				return [...]float64{top, top - 1, top - 2, bottom, bottom + 1, bottom + 2, 0.5}[rng.Intn(7)]
			}
			pts = append(pts, geom.Pt(at(), at(), at()))
		}
		edge = append(edge, pts)
	}
	timed := walk(100, 25, 20, 1, 1)
	var stamps []int32
	for i := range timed.Objects {
		b := int32(rng.Intn(7) - 3)
		for range timed.Objects[i].Pts {
			if rng.Intn(4) == 0 {
				b += int32(rng.Intn(3))
			}
			stamps = append(stamps, b)
		}
	}
	return []neighbourhoodCase{
		{name: "walks", ds: walk(150, 40, 30, 1, 1), width: 2},
		{name: "layered", ds: walk(150, 40, 30, 1, 3), width: 1},
		{name: "planar", ds: planar, width: 2},
		{name: "edge", ds: dataset(edge...), width: 1},
		{name: "bucketed/halo=1", ds: timed, width: 2, bucket: stamps, halo: 1},
		{name: "bucketed/halo=0", ds: timed, width: 2, bucket: stamps},
	}
}

// TestNeighborhoodPostings holds the neighbour-table neighbourhood
// counts against a per-cell sum over what columns visits.
func TestNeighborhoodPostings(t *testing.T) {
	for _, tc := range neighbourhoodCases() {
		g, _, _ := Build(NewPoints(tc.ds), tc.width, 0, tc.bucket, tc.halo, 1, nil, nil, nil)
		got := g.NeighborhoodPostings()
		if len(got) != g.Len() {
			t.Fatalf("%s: %d counts for %d cells", tc.name, len(got), g.Len())
		}
		for c := 0; c < g.Len(); c++ {
			want := int32(0)
			g.columns(g.Bucket(c), g.Key(c), 1, g.halo, func(_, _, _ int32, lo, hi int) {
				want += g.CellOff[hi] - g.CellOff[lo]
			})
			if got[c] != want {
				t.Fatalf("%s: cell %d (bucket %d, key %v): S = %d, columns sum %d", tc.name, c, g.Bucket(c), g.Key(c), got[c], want)
			}
		}
	}
}

// TestNeighborTableMatchesColumns holds every cell's neighbourhood as
// the neighbour table gives it against the directory search it
// replaces: around must visit the non-empty windows columns visits, in
// its order; Neighbors must fill every slot as the search-based walk
// would; and b^adj (ComputeAdj) must be the union over the searched
// windows, and on a spatial grid ComputeAdjRadius(k, 1).
func TestNeighborTableMatchesColumns(t *testing.T) {
	type window struct {
		dt, dx, dy int32
		lo, hi     int
	}
	for _, tc := range neighbourhoodCases() {
		g, _, _ := Build(NewPoints(tc.ds), tc.width, 0, tc.bucket, tc.halo, 1, nil, nil, nil)
		if tc.name == "planar" && len(g.colStart) != g.Len()+1 {
			t.Fatalf("planar: %d columns for %d cells", len(g.colStart)-1, g.Len())
		}
		for c := 0; c < g.Len(); c++ {
			var want, got []window
			var slots [MaxNeighbors]int32
			for i := range slots {
				slots[i] = -1
			}
			var union []int32
			g.columns(g.Bucket(c), g.Key(c), 1, g.halo, func(dt, dx, dy int32, lo, hi int) {
				if lo < hi {
					want = append(want, window{dt, dx, dy, lo, hi})
				}
				for m := lo; m < hi; m++ {
					dz := int32(g.lo[m] - g.lo[c])
					// NeighborsAndSelf order: the key itself, then
					// (dx, dy, dz) ascending.
					slot := 0
					if dx != 0 || dy != 0 || dz != 0 {
						slot = int((dx+1)*9+(dy+1)*3+dz+1) + 1
						if slot > 14 {
							slot--
						}
					}
					slots[int(dt+g.halo)*27+slot] = int32(m)
				}
				union = append(union, g.Objs[g.CellOff[lo]:g.CellOff[hi]]...)
			})
			g.around(c, func(dt, dx, dy int32, lo, hi int) { got = append(got, window{dt, dx, dy, lo, hi}) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: cell %d (bucket %d, key %v): around visits %v, columns %v", tc.name, c, g.Bucket(c), g.Key(c), got, want)
			}
			var neigh [MaxNeighbors]int32
			n := g.Neighbors(c, &neigh)
			if n != int(2*g.halo+1)*27 || !reflect.DeepEqual(neigh[:n], slots[:n]) {
				t.Fatalf("%s: cell %d (bucket %d, key %v): Neighbors = %v (%d), want %v", tc.name, c, g.Bucket(c), g.Key(c), neigh[:n], n, slots)
			}
			s := bitmap.NewScratch(tc.ds.N())
			s.OrIDs(union)
			wantAdj := bitsOf(s.ToCompressed(), tc.ds.N())
			if adj, _ := g.ComputeAdj(c); !reflect.DeepEqual(bitsOf(adj, tc.ds.N()), wantAdj) {
				t.Fatalf("%s: cell %d: ComputeAdj = %v, want %v", tc.name, c, bitsOf(adj, tc.ds.N()), wantAdj)
			}
			if tc.bucket == nil {
				if got := bitsOf(g.ComputeAdjRadius(g.Key(c), 1), tc.ds.N()); !reflect.DeepEqual(got, wantAdj) {
					t.Fatalf("%s: cell %d: ComputeAdjRadius(1) = %v, want %v", tc.name, c, got, wantAdj)
				}
			}
		}
	}
}
