package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestGreedyCoversAllItems(t *testing.T) {
	f := func(weights []uint8, t8 uint8) bool {
		tn := int(t8%8) + 1
		ws := make([]int, len(weights))
		for i, w := range weights {
			ws[i] = int(w)
		}
		buckets := Greedy(ws, tn)
		if len(buckets) != tn {
			return false
		}
		seen := map[int]bool{}
		for _, b := range buckets {
			for _, i := range b {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return len(seen) == len(ws)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// greedyLoads sums each of Greedy's buckets' weights.
func greedyLoads(buckets [][]int, weights []int) []int64 {
	loads := make([]int64, len(buckets))
	for b, items := range buckets {
		for _, i := range items {
			loads[b] += int64(weights[i])
		}
	}
	return loads
}

func TestGreedyBalances(t *testing.T) {
	// Equal weights must split perfectly.
	ws := make([]int, 100)
	for i := range ws {
		ws[i] = 10
	}
	loads := greedyLoads(Greedy(ws, 4), ws)
	for _, l := range loads {
		if l != 250 {
			t.Fatalf("loads = %v", loads)
		}
	}
	// Skewed weights: max load must stay within max(weight) of the
	// mean (classic greedy guarantee for this arrival order is weaker,
	// but the bound max <= mean + maxW holds).
	ws = []int{100, 1, 1, 1, 1, 1, 1, 50, 50, 3}
	loads = greedyLoads(Greedy(ws, 3), ws)
	total := int64(0)
	maxLoad := int64(0)
	for _, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if total != 209 {
		t.Fatalf("total = %d", total)
	}
	if maxLoad > 209/3+100 {
		t.Fatalf("maxLoad = %d", maxLoad)
	}
}

func TestGreedyEdgeCases(t *testing.T) {
	if got := Greedy(nil, 4); len(got) != 4 {
		t.Fatalf("nil weights: %v", got)
	}
	if got := Greedy([]int{5}, 0); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("t=0: %v", got)
	}
}

func TestRanges(t *testing.T) {
	ws := []int{10, 10, 10, 10, 10, 10, 10, 10}
	rs := Ranges(ws, 4)
	if len(rs) != 4 {
		t.Fatalf("ranges = %v", rs)
	}
	// Contiguous cover.
	next := 0
	for _, r := range rs {
		if r[0] != next || r[1] <= r[0] {
			t.Fatalf("ranges not contiguous: %v", rs)
		}
		next = r[1]
	}
	if next != len(ws) {
		t.Fatalf("ranges don't cover: %v", rs)
	}
	// Balanced for uniform weights.
	for _, r := range rs {
		if r[1]-r[0] != 2 {
			t.Fatalf("unbalanced uniform split: %v", rs)
		}
	}
}

func TestRangesSkewed(t *testing.T) {
	ws := []int{1000, 1, 1, 1, 1, 1, 1, 1}
	rs := Ranges(ws, 4)
	// First range must contain only the heavy item.
	if rs[0] != [2]int{0, 1} {
		t.Fatalf("heavy item not isolated: %v", rs)
	}
	next := 0
	for _, r := range rs {
		if r[0] != next {
			t.Fatalf("gap in ranges: %v", rs)
		}
		next = r[1]
	}
	if next != len(ws) {
		t.Fatalf("missing tail: %v", rs)
	}
}

func TestRangesQuickCoverage(t *testing.T) {
	f := func(weights []uint8, t8 uint8) bool {
		tn := int(t8%8) + 1
		ws := make([]int, len(weights))
		for i, w := range weights {
			ws[i] = int(w)
		}
		rs := Ranges(ws, tn)
		if len(ws) == 0 {
			return rs == nil
		}
		next := 0
		for _, r := range rs {
			if r[0] != next || r[1] <= r[0] {
				return false
			}
			next = r[1]
		}
		return next == len(ws) && len(rs) <= tn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunExecutesAllWorkers(t *testing.T) {
	var count atomic.Int64
	Run(8, func(w int) { count.Add(int64(w) + 1) })
	if count.Load() != 36 {
		t.Fatalf("sum = %d", count.Load())
	}
	ran := false
	Run(1, func(w int) { ran = w == 0 })
	if !ran {
		t.Fatal("t=1 did not run inline")
	}
}
