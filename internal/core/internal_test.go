package core

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mio/internal/baseline"
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
		if cand[i].tauUpp == cand[i-1].tauUpp && cand[i].obj < cand[i-1].obj {
			t.Fatal("tie-break not by object id")
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
	if second.Stats.GridMapping >= first.Stats.GridMapping*2 {
		t.Errorf("labeled grid mapping slower: %v vs %v", second.Stats.GridMapping, first.Stats.GridMapping)
	}
	// Labeled index must not be larger: 0** points are never mapped.
	if second.Stats.IndexBytes > first.Stats.IndexBytes {
		t.Errorf("labeled index grew: %d > %d", second.Stats.IndexBytes, first.Stats.IndexBytes)
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
// function of (dataset, r, labels) alone: identical at Workers 1 and 2,
// across two builds of one query and between the solo and the group
// (RunGroup) build, with and without a label set. LB-hash-p splits
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
				q.labels = l
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
			eng, _ := NewEngine(ds, Options{Workers: 2})
			large, smalls, complete := eng.mapGrids([]float64{r - 0.25, r}, l, nil, 0, func() bool { return false })
			if !complete {
				t.Fatalf("%s: group build incomplete", name)
			}
			if got := shapeOf(newBigrid(smalls[1], large, groupsOf(large, ds.N()))); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s labels=%v: group build differs from the solo build", name, l != nil)
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
		for i, exact := range oracle {
			if int(q.tauLow[i]) > exact || int(q.tauUpp[i]) < exact {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
