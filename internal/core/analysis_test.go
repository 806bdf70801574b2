package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mio/internal/baseline"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/geom"
)

func TestInteractingSetMatchesOracle(t *testing.T) {
	ds := data.GenTrajectory(data.TrajectoryConfig{
		N: 100, M: 20, Groups: 5, FieldSize: 2000, Speed: 20, FollowStd: 8, Solo: 0.3, Seed: 41,
	})
	eng, _ := NewEngine(ds, Options{})
	r := 25.0
	r2 := r * r
	for _, obj := range []int{0, 17, 99} {
		got, err := eng.InteractingSet(context.Background(), r, obj)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for j := range ds.Objects {
			if j == obj {
				continue
			}
			found := false
			for _, p := range ds.Objects[obj].Pts {
				for _, q := range ds.Objects[j].Pts {
					if geom.Dist2(p, q) <= r2 {
						found = true
						break
					}
				}
				if found {
					break
				}
			}
			if found {
				want = append(want, j)
			}
		}
		if want == nil {
			want = []int{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("obj %d: got %v, want %v", obj, got, want)
		}
	}
}

func TestInteractingSetErrors(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 5, M: 3, FieldSize: 20, Spread: 3, Seed: 1})
	eng, _ := NewEngine(ds, Options{})
	if _, err := eng.InteractingSet(context.Background(), 0, 0); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := eng.InteractingSet(context.Background(), 5, -1); err == nil {
		t.Error("negative object accepted")
	}
	if _, err := eng.InteractingSet(context.Background(), 5, 5); err == nil {
		t.Error("out-of-range object accepted")
	}
}

func TestAllScoresMatchesNL(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 70, M: 8, FieldSize: 120, Spread: 9, Seed: 43})
	eng, _ := NewEngine(ds, Options{})
	for _, r := range []float64{4, 12} {
		want := baseline.NLScores(ds, r)
		got, err := eng.AllScores(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("r=%g: AllScores mismatch", r)
		}
	}
	// Parallel path.
	engP, _ := NewEngine(ds, Options{Workers: 3})
	got, err := engP.AllScores(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, baseline.NLScores(ds, 8)) {
		t.Fatal("parallel AllScores mismatch")
	}
	if _, err := eng.AllScores(context.Background(), 0); err == nil {
		t.Error("r=0 accepted")
	}
}

func TestSweepMatchesIndividualQueries(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 60, M: 6, FieldSize: 100, Spread: 8, Seed: 44})
	eng, _ := NewEngine(ds, Options{})
	rs := []float64{3, 6, 9}
	sweep, err := eng.Sweep(context.Background(), rs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != len(rs) {
		t.Fatalf("sweep results = %d", len(sweep))
	}
	for i, sr := range sweep {
		if sr.R != rs[i] {
			t.Fatalf("result %d has r=%g", i, sr.R)
		}
		single, _ := eng.RunTopK(rs[i], 2)
		if sr.Result.Best.Score != single.Best.Score {
			t.Fatalf("r=%g: sweep best %d vs single %d", rs[i], sr.Result.Best.Score, single.Best.Score)
		}
	}
	if _, err := eng.Sweep(context.Background(), []float64{2, -1}, 1); err == nil {
		t.Error("invalid threshold in sweep accepted")
	}
	// Scores must be monotone non-decreasing in r for the same object
	// set: larger r can only add interactions.
	prev := -1
	for _, sr := range sweep {
		if sr.Result.Best.Score < prev {
			t.Fatalf("best score decreased with r: %d -> %d", prev, sr.Result.Best.Score)
		}
		prev = sr.Result.Best.Score
	}
}

func TestScoreHistogram(t *testing.T) {
	counts, width := ScoreHistogram([]int{0, 1, 2, 9, 9, 9}, 5)
	if width != 2 {
		t.Fatalf("width = %d", width)
	}
	// bins: [0,1]=2, [2,3]=1, [4,5]=0, [6,7]=0, [8,9]=3
	want := []int{2, 1, 0, 0, 3}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	if c, _ := ScoreHistogram(nil, 3); c != nil {
		t.Fatal("nil scores")
	}
	if c, _ := ScoreHistogram([]int{1}, 0); c != nil {
		t.Fatal("zero buckets")
	}
}

func TestTopPercentile(t *testing.T) {
	scores := []int{5, 1, 9, 3, 7, 2, 8, 4, 6, 0} // 0..9
	if got := TopPercentile(scores, 1.0); got != 9 {
		t.Fatalf("p100 = %d", got)
	}
	if got := TopPercentile(scores, 0.5); got != 4 {
		t.Fatalf("p50 = %d", got)
	}
	if got := TopPercentile(scores, 0.01); got != 0 {
		t.Fatalf("p1 = %d", got)
	}
	if got := TopPercentile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %d", got)
	}
}

func TestSynScoreDistributionIsSkewed(t *testing.T) {
	// The Syn stand-in exists to give a power-law score distribution:
	// the top percentile must dwarf the median.
	ds := data.GenPowerLaw(data.PowerLawConfig{
		N: 1500, M: 8, Alpha: 1.6, Clusters: 60, FieldSize: 1500, HubStd: 12, Seed: 45,
	})
	eng, _ := NewEngine(ds, Options{})
	scores, err := eng.AllScores(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	p50 := TopPercentile(scores, 0.5)
	p99 := TopPercentile(scores, 0.99)
	if p99 < 4*(p50+1) {
		t.Fatalf("distribution not skewed: p50=%d p99=%d", p50, p99)
	}
}

func TestExplain(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 40, M: 5, FieldSize: 60, Spread: 6, Seed: 46})
	eng, _ := NewEngine(ds, Options{})
	res, _ := eng.Run(6)
	out := res.Explain(ds.N())
	for _, want := range []string{"answer:", "grid mapping:", "pruning:", "verification:", "total:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Labeled runs mention the labels.
	store := labelstore.NewStore()
	leng, _ := NewEngine(ds, Options{Labels: store})
	leng.Run(6)
	res2, _ := leng.Run(6)
	if !strings.Contains(res2.Explain(ds.N()), "labels: reused") {
		t.Error("labeled Explain missing label line")
	}
}
