package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mio/internal/baseline"
	"mio/internal/bitmap"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/geom"
	"mio/internal/grid"
)

func TestInsertTopK(t *testing.T) {
	var top []Scored
	for _, s := range []Scored{{1, 5}, {2, 9}, {3, 2}, {4, 9}, {5, 7}} {
		top = insertTopK(top, s, 3)
	}
	// 9 (obj 2), 9 (obj 4, after 2), 7 (obj 5).
	want := []Scored{{2, 9}, {4, 9}, {5, 7}}
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("top = %v, want %v", top, want)
	}
	// Inserting below the kth is a no-op.
	if got := insertTopK(top, Scored{6, 1}, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("low insert changed top: %v", got)
	}
	// k=1 keeps only the best; ties keep the earlier entry.
	one := insertTopK(nil, Scored{1, 4}, 1)
	one = insertTopK(one, Scored{2, 4}, 1)
	if !reflect.DeepEqual(one, []Scored{{1, 4}}) {
		t.Fatalf("tie-break = %v", one)
	}
}

func TestInsertTopKQuickSorted(t *testing.T) {
	f := func(scores []uint8, k8 uint8) bool {
		k := int(k8%10) + 1
		var top []Scored
		for i, s := range scores {
			top = insertTopK(top, Scored{Obj: i, Score: int(s)}, k)
		}
		if len(top) > k {
			return false
		}
		// Must equal the k largest values, sorted descending.
		all := make([]int, len(scores))
		for i, s := range scores {
			all[i] = int(s)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(all)))
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := make([]int, len(top))
		for i, s := range top {
			got[i] = s.Score
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKthHighest(t *testing.T) {
	e := &Engine{}
	q := &query{e: e, k: 1}
	if got := q.kthHighest([]int32{3, 9, 1}); got != 9 {
		t.Fatalf("k=1: %d", got)
	}
	q.k = 2
	if got := q.kthHighest([]int32{3, 9, 1}); got != 3 {
		t.Fatalf("k=2: %d", got)
	}
	q.k = 5
	if got := q.kthHighest([]int32{3, 9, 1}); got != 0 {
		t.Fatalf("k>n: %d", got)
	}
}

func TestCandidateOrdering(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 80, M: 6, FieldSize: 150, Spread: 10, Seed: 77})
	eng, _ := NewEngine(ds, Options{})
	q := newQuery(eng, 8, 1)
	q.gridMapping()
	q.lowerBounding()
	q.computeUpperBounds()
	cand := q.assembleCandidates(0)
	for i := 1; i < len(cand); i++ {
		if cand[i].tauUpp > cand[i-1].tauUpp {
			t.Fatal("candidates not sorted by upper bound")
		}
		if cand[i].tauUpp == cand[i-1].tauUpp && eng.ord.ext[cand[i].obj] < eng.ord.ext[cand[i-1].obj] {
			t.Fatal("tie-break not by external object id")
		}
	}
	// threshold 0 keeps everyone.
	if len(cand) != ds.N() {
		t.Fatalf("candidates = %d, want %d", len(cand), ds.N())
	}
}

func TestLabelsActuallyPrunePoints(t *testing.T) {
	// After a collecting run, a meaningful number of points must carry
	// cleared label bits, and the labeled re-run must do less work.
	// The work is counted, not timed: wall clocks flake under load.
	ds := data.GenTrajectory(data.TrajectoryConfig{
		N: 200, M: 30, Groups: 6, FieldSize: 2500, Speed: 20, FollowStd: 8, Solo: 0.4, Seed: 88,
	})
	store := labelstore.NewStore()
	eng, _ := NewEngine(ds, Options{Labels: store})
	first, err := eng.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := store.Get(10)
	if !ok {
		t.Fatal("labels not stored")
	}
	mapped, upper, verify := l.Counts()
	if mapped == 0 {
		t.Error("Labeling-1 never fired on sparse trajectory data")
	}
	if upper == 0 {
		t.Error("Labeling-2 never fired")
	}
	_ = verify // Labeling-3 fires only for verified candidates; may be 0
	second, err := eng.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.UsedLabels {
		t.Fatal("labels unused on re-run")
	}
	if second.Best.Score != first.Best.Score {
		t.Fatalf("labels changed the answer: %d vs %d", second.Best.Score, first.Best.Score)
	}
	// 0** points are never mapped, so the labelled grids must be
	// strictly smaller: that is the work the labels save.
	for _, c := range []struct {
		name          string
		first, second int
	}{
		{"large cells", first.Stats.LargeCells, second.Stats.LargeCells},
		{"small cells", first.Stats.SmallCells, second.Stats.SmallCells},
		{"index bytes", first.Stats.IndexBytes, second.Stats.IndexBytes},
	} {
		if c.second >= c.first {
			t.Errorf("labelled rerun did not shrink %s: %d -> %d", c.name, c.first, c.second)
		}
	}
}

func TestParallelGridMappingEquivalence(t *testing.T) {
	// The BIGrid built with the quantising sweep split over four
	// workers must be the serial one: same cells, same key lists, same
	// groups.
	ds := data.GenNeuron(data.NeuronConfig{
		N: 30, M: 80, Clusters: 3, FieldSize: 120, ClusterStd: 15, StepLen: 1, Branches: 3, Seed: 91,
	})
	eng, _ := NewEngine(ds, Options{})
	qs := newQuery(eng, 5, 1)
	qs.gridMapping()

	engP, _ := NewEngine(ds, Options{Workers: 4})
	qp := newQuery(engP, 5, 1)
	qp.gridMapping()

	if !reflect.DeepEqual(shapeOf(qs.idx), shapeOf(qp.idx)) {
		t.Fatal("serial and 4-worker builds differ")
	}
}

// indexShape is everything the phases read of a bigrid's access
// structures, with cell indices resolved to keys.
type indexShape struct {
	SmallCells, LargeCells int
	KeyLists               [][]grid.Key
	GroupCells             [][]grid.Key
	GroupPts               [][][]int32
}

func shapeOf(b *bigrid) indexShape {
	sh := indexShape{SmallCells: b.small.Len(), LargeCells: b.large.Len()}
	for _, kl := range b.keyLists {
		keys := []grid.Key{}
		for _, c := range kl {
			keys = append(keys, b.small.Key(int(c)))
		}
		sh.KeyLists = append(sh.KeyLists, keys)
	}
	for _, gs := range b.groups {
		cells, pts := []grid.Key{}, [][]int32{}
		for _, g := range gs {
			cells = append(cells, b.large.Key(int(g.cell)))
			pts = append(pts, b.large.PointIdx(int(g.post)))
		}
		sh.GroupCells = append(sh.GroupCells, cells)
		sh.GroupPts = append(sh.GroupPts, pts)
	}
	return sh
}

// TestIndexBuildDeterministic pins that keyLists and groups are a
// function of (dataset, r, labels) alone: identical at Workers 1 and 2
// and across two builds of one query, with and without a label set. LB-hash-p splits
// keyLists[i] by j mod t and the parallel phases partition by group
// order, so any other order moves work between runs.
func TestIndexBuildDeterministic(t *testing.T) {
	for name, ds := range testDatasets(t) {
		r := rValues(name)[1]
		// A label set collected by a real run: Labeling-1 prunes points
		// on every one of these datasets but onecell.
		store := labelstore.NewStore()
		warm, _ := NewEngine(ds, Options{Labels: store})
		if _, err := warm.Run(r); err != nil {
			t.Fatal(err)
		}
		labels, ok := store.Get(int(math.Ceil(r)))
		if !ok {
			t.Fatalf("%s: no labels collected", name)
		}
		for _, l := range []*labelstore.Labels{nil, labels} {
			build := func(workers int) indexShape {
				eng, _ := NewEngine(ds, Options{Workers: workers})
				q := newQuery(eng, r, 1)
				if l != nil {
					q.labels = labelRows(l, eng.ord.ext)
				}
				q.gridMapping()
				return shapeOf(q.idx)
			}
			want := build(1)
			if n := len(want.KeyLists); n != ds.N() || len(want.GroupCells) != n {
				t.Fatalf("%s: %d key lists, %d group lists for %d objects", name, n, len(want.GroupCells), ds.N())
			}
			for i, cells := range want.GroupCells {
				if !sort.SliceIsSorted(cells, func(a, b int) bool { return cells[a].Less(cells[b]) }) {
					t.Fatalf("%s: object %d groups not in cell order", name, i)
				}
			}
			for _, workers := range []int{1, 2} {
				if got := build(workers); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s labels=%v: Workers=%d build differs from the first Workers=1 build", name, l != nil, workers)
				}
			}
		}
	}
}

func TestScoreStateMaskReuse(t *testing.T) {
	// Two objects sharing a straight line of near-identical points
	// exercise the consecutive-same-cell mask reuse; scores must match
	// the oracle exactly.
	var a, b []geom.Point
	for i := 0; i < 40; i++ {
		a = append(a, geom.Pt(float64(i)*0.2, 0, 0))
		b = append(b, geom.Pt(float64(i)*0.2, 0.5, 0))
	}
	ds := &data.Dataset{Objects: []data.Object{
		{ID: 0, Pts: a},
		{ID: 1, Pts: b},
		{ID: 2, Pts: []geom.Point{geom.Pt(100, 100, 100)}},
	}}
	oracle := baseline.NLScores(ds, 1)
	eng, _ := NewEngine(ds, Options{})
	res, err := eng.RunTopK(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.TopK {
		if oracle[s.Obj] != s.Score {
			t.Fatalf("obj %d: %d vs oracle %d", s.Obj, s.Score, oracle[s.Obj])
		}
	}
}

// checkAllScores compares every exact score the group walk computes —
// AllScores, InteractingSet and a top-n query — with the oracle, at
// Workers 1 and 2.
func checkAllScores(t *testing.T, name string, ds *data.Dataset, r float64) {
	t.Helper()
	oracle := baseline.NLScores(ds, r)
	for _, workers := range []int{1, 2} {
		eng, err := NewEngine(ds, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		scores, err := eng.AllScores(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scores, oracle) {
			t.Fatalf("%s Workers=%d: AllScores %v, oracle %v", name, workers, scores, oracle)
		}
		for i := range oracle {
			set, err := eng.InteractingSet(context.Background(), r, i)
			if err != nil {
				t.Fatal(err)
			}
			if len(set) != oracle[i] {
				t.Fatalf("%s Workers=%d: InteractingSet(%d) = %v, oracle score %d", name, workers, i, set, oracle[i])
			}
		}
		res, err := eng.RunTopK(r, ds.N())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.TopK {
			if oracle[s.Obj] != s.Score {
				t.Fatalf("%s Workers=%d: obj %d scored %d, oracle %d", name, workers, s.Obj, s.Score, oracle[s.Obj])
			}
		}
	}
}

// walkDistComps returns the distance computations of one serial exact
// score of object i.
func walkDistComps(t *testing.T, ds *data.Dataset, r float64, i int) int {
	t.Helper()
	eng, err := NewEngine(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := newQuery(eng, r, 1)
	q.gridMapping()
	ctr := ctrSet{}
	q.exactScore(int(eng.ord.pos[i]), bitmap.NewScratch(q.n), bitmap.NewScratch(q.n), &ctr)
	return ctr.distComps
}

// TestGroupWalkLastPointHits: object 0's three points share one large
// cell and only the last is within r of object 1's point in the next
// cell, so the group's posting scan misses twice before it hits.
func TestGroupWalkLastPointHits(t *testing.T) {
	ds := &data.Dataset{Objects: []data.Object{
		{ID: 0, Pts: []geom.Point{geom.Pt(0.1, 0.5, 0.5), geom.Pt(0.5, 0.5, 0.5), geom.Pt(0.9, 0.5, 0.5)}},
		{ID: 1, Pts: []geom.Point{geom.Pt(1.8, 0.5, 0.5)}},
		{ID: 2, Pts: []geom.Point{geom.Pt(9, 9, 9)}},
	}}
	checkAllScores(t, "last point hits", ds, 1)
	// Two misses charge the one-point posting in full, the hit charges
	// up to and including itself.
	if got := walkDistComps(t, ds, 1, 0); got != 3 {
		t.Fatalf("object 0: %d distance computations, want 3", got)
	}
}

// TestGroupWalkDiagonalNeighbour: the two objects sit in large cells
// that touch only at a corner and in different small cells, so only
// the walk's diagonal neighbour probe finds the pair.
func TestGroupWalkDiagonalNeighbour(t *testing.T) {
	ds := &data.Dataset{Objects: []data.Object{
		{ID: 0, Pts: []geom.Point{geom.Pt(0.99, 0.99, 0.99), geom.Pt(0.2, 0.2, 0.2)}},
		{ID: 1, Pts: []geom.Point{geom.Pt(1.16, 1.16, 1.16), geom.Pt(1.9, 1.9, 1.9)}},
		{ID: 2, Pts: []geom.Point{geom.Pt(-3, 5, 0)}},
	}}
	eng, _ := NewEngine(ds, Options{})
	q := newQuery(eng, 1, 1)
	q.gridMapping()
	if len(q.idx.keyLists[eng.ord.pos[0]]) != 0 {
		t.Fatal("setup: the pair shares a small cell, so Lemma 1 finds it without the walk")
	}
	// The cell of an object's point 0 is that of the group holding index 0.
	cellOfFirst := func(i int) grid.Key {
		for _, g := range q.idx.groups[eng.ord.pos[i]] {
			if idx := q.idx.large.PointIdx(int(g.post)); len(idx) > 0 && idx[0] == 0 {
				return q.idx.large.Key(int(g.cell))
			}
		}
		t.Fatalf("setup: object %d's point 0 is in no group", i)
		return grid.Key{}
	}
	a, b := cellOfFirst(0), cellOfFirst(1)
	if a.X+1 != b.X || a.Y+1 != b.Y || a.Z+1 != b.Z {
		t.Fatalf("setup: cells %v and %v are not diagonal neighbours", a, b)
	}
	checkAllScores(t, "diagonal neighbour", ds, 1)
}

// TestGroupWalkOneLargeCell: every point of object 0 falls into one
// large cell, so its exact score is a single group, longer than the
// cancellation poll period. The score must match the oracle, and a
// poll that fires inside that one group must stop the walk.
func TestGroupWalkOneLargeCell(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var big []geom.Point
	for j := 0; j < 700; j++ {
		big = append(big, geom.Pt(rng.Float64()*8, rng.Float64()*8, rng.Float64()*8))
	}
	objs := []data.Object{{ID: 0, Pts: big}}
	for i := 1; i < 12; i++ {
		// Partners one cell over, in every direction and at every
		// distance from the big cell's faces.
		objs = append(objs, data.Object{ID: i, Pts: []geom.Point{
			geom.Pt(-8+rng.Float64()*24, -8+rng.Float64()*24, -8+rng.Float64()*24),
			geom.Pt(-8+rng.Float64()*24, -8+rng.Float64()*24, -8+rng.Float64()*24),
		}})
	}
	ds := &data.Dataset{Objects: objs}
	eng, _ := NewEngine(ds, Options{})
	q := newQuery(eng, 8, 1)
	q.gridMapping()
	if gs := q.idx.groups[eng.ord.pos[0]]; len(gs) != 1 {
		t.Fatalf("setup: object 0 has %d groups, want 1", len(gs))
	}
	checkAllScores(t, "one large cell", ds, 8)

	// The poll inside the group. The cloud leaves out the corner of its
	// cell beyond the plane x + y + z = 12, so a partner at (10, 10, 10)
	// is about 3.6 from the group's box (nearly the whole cell) but at least
	// (30 − 12)/√3 ≈ 10.4 from every one of its points. The box passes
	// it, every group point scans its posting to the end, and the first
	// poll (the 256th probe) cancels after 255 of them.
	var cut []geom.Point
	cut = append(cut, geom.Pt(0, 0, 0), geom.Pt(7.9, 0, 0), geom.Pt(0, 7.9, 0), geom.Pt(0, 0, 7.9))
	for len(cut) < 700 {
		if p := geom.Pt(rng.Float64()*8, rng.Float64()*8, rng.Float64()*8); p.X+p.Y+p.Z <= 12 {
			cut = append(cut, p)
		}
	}
	near := &data.Dataset{Objects: []data.Object{{ID: 0, Pts: cut}, {ID: 1, Pts: []geom.Point{geom.Pt(10, 10, 10)}}}}
	if full, cancelled, _ := cancelledWalk(t, near, 8); full != len(cut) || cancelled != 255 {
		t.Fatalf("box-passed partner: %d distance computations cancelled, %d full; want 255 of %d", cancelled, full, len(cut))
	}

	// A far partner no group point reaches is rejected by the box in one
	// step. It is charged what the 700 scans would have cost, and the
	// probes it spares still cross the poll, which fires.
	far := &data.Dataset{Objects: []data.Object{{ID: 0, Pts: big}, {ID: 1, Pts: []geom.Point{geom.Pt(15.9, 15.9, 15.9)}}}}
	if full, cancelled, stopped := cancelledWalk(t, far, 8); full != len(big) || cancelled != len(big) || !stopped {
		t.Fatalf("box-rejected partner: %d distance computations cancelled (stopped %v), %d full; want %d, stopped",
			cancelled, stopped, full, len(big))
	}
}

// cancelledWalk returns object 0's distance computations in ds at r,
// then those of its walk under a context that cancels at the first poll
// and whether the walk stopped. Object 0 must be one group.
func cancelledWalk(t *testing.T, ds *data.Dataset, r float64) (full, cancelled int, stopped bool) {
	t.Helper()
	full = walkDistComps(t, ds, r, 0)
	eng, err := NewEngine(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := newQuery(eng, r, 1)
	q.gridMapping()
	i := int(eng.ord.pos[0])
	if gs := q.idx.groups[i]; len(gs) != 1 {
		t.Fatalf("setup: object 0 has %d groups, want 1", len(gs))
	}
	q.ctx = newPollCtx(1)
	w := scoreWalk{q: q, i: i, bOi: bitmap.NewScratch(q.n), mask: bitmap.NewScratch(q.n)}
	w.run()
	return full, w.ctr.distComps, w.stopped
}

// TestLabeling3PerGroup runs Labeling-3 on TestLabelsActuallyPrunePoints'
// dataset: collect at r, then consume at r and at an r′ with the same
// ⌈r⌉. Both answers are the oracle's, and the consuming run at r does
// no more distance computations than the collecting one.
func TestLabeling3PerGroup(t *testing.T) {
	ds := data.GenTrajectory(data.TrajectoryConfig{
		N: 200, M: 30, Groups: 6, FieldSize: 2500, Speed: 20, FollowStd: 8, Solo: 0.4, Seed: 88,
	})
	const r, rr, k = 10, 9.4, 5
	for _, workers := range []int{1, 2} {
		store := labelstore.NewStore()
		eng, _ := NewEngine(ds, Options{Workers: workers, Labels: store})
		runs := map[float64]*Result{}
		for _, x := range []float64{r, r, rr} {
			res, err := eng.RunTopK(x, k)
			if err != nil {
				t.Fatal(err)
			}
			want := baselineScores(baseline.TopKFromScores(baseline.NLScores(ds, x), k))
			if got := scoreMultiset(res.TopK); !reflect.DeepEqual(got, want) {
				t.Fatalf("Workers=%d r=%g labels=%v: %v, oracle %v", workers, x, res.Stats.UsedLabels, got, want)
			}
			if runs[x] != nil {
				if !res.Stats.UsedLabels {
					t.Fatalf("Workers=%d: the second run at r=%g did not use the labels", workers, x)
				}
				if res.Stats.DistanceComps > runs[x].Stats.DistanceComps {
					t.Fatalf("Workers=%d: consuming run did %d distance computations, collecting run %d",
						workers, res.Stats.DistanceComps, runs[x].Stats.DistanceComps)
				}
			}
			runs[x] = res
		}
		l, _ := store.Get(r)
		if _, _, verify := l.Counts(); verify == 0 {
			t.Errorf("Workers=%d: Labeling-3 never fired", workers)
		}
	}
}

func TestQuickBoundsSandwich(t *testing.T) {
	// Property: for random micro-datasets and thresholds, lower ≤ exact
	// ≤ upper for every object.
	type input struct {
		Seed int64
		R    uint8
	}
	f := func(in input) bool {
		r := 1 + float64(in.R%20)
		ds := data.GenUniform(data.UniformConfig{
			N: 25, M: 4, FieldSize: 80, Spread: 8, Seed: in.Seed,
		})
		oracle := baseline.NLScores(ds, r)
		eng, _ := NewEngine(ds, Options{})
		q := newQuery(eng, r, 1)
		q.gridMapping()
		q.lowerBounding()
		q.computeUpperBounds()
		for i, j := range eng.ord.ext {
			if exact := oracle[j]; int(q.tauLow[i]) > exact || int(q.tauUpp[i]) < exact {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
