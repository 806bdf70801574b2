package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunStressRace hammers Run across a GOMAXPROCS sweep. Each round
// checks two things the §IV phases depend on: every worker index in
// [0,t) runs exactly once, and all worker writes are visible to the
// caller once Run returns (the WaitGroup must publish them). A
// regression in Run's synchronization shows up as a -race report or a
// lost update here.
func TestRunStressRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 3, 8, 16} {
			for round := 0; round < rounds; round++ {
				seen := make([]int32, workers)
				var total atomic.Int64
				Run(workers, func(w int) {
					// Unsynchronized per-worker slot: only safe if Run
					// really gives each worker a distinct index.
					seen[w]++
					total.Add(int64(w) + 1)
				})
				for w, c := range seen {
					if c != 1 {
						t.Fatalf("procs=%d workers=%d: worker %d ran %d times", procs, workers, w, c)
					}
				}
				want := int64(workers) * int64(workers+1) / 2
				if total.Load() != want {
					t.Fatalf("procs=%d workers=%d: total %d, want %d", procs, workers, total.Load(), want)
				}
			}
		}
	}
}

// TestPartitionersConcurrentUse runs the two partitioners from many
// goroutines at once over shared inputs. They are pure functions; any
// hidden shared state (memoization, scratch reuse) would trip -race.
func TestPartitionersConcurrentUse(t *testing.T) {
	weights := make([]int, 500)
	for i := range weights {
		weights[i] = (i*7919)%97 + 1
	}
	goroutines := 8
	rounds := 50
	if testing.Short() {
		rounds = 5
	}
	Run(goroutines, func(w int) {
		for round := 0; round < rounds; round++ {
			tgt := w%4 + 1
			buckets := Greedy(weights, tgt)
			if len(buckets) != tgt {
				t.Errorf("Greedy made %d buckets, want %d", len(buckets), tgt)
				return
			}
			covered := 0
			var total, maxLoad int64
			for _, l := range greedyLoads(buckets, weights) {
				total += l
				maxLoad = max(maxLoad, l)
			}
			for _, b := range buckets {
				covered += len(b)
			}
			if covered != len(weights) {
				t.Errorf("Greedy dropped items: %d of %d", covered, len(weights))
				return
			}
			// Greedy's guarantee: no bucket exceeds the mean by more than
			// the heaviest item (97 here).
			if maxLoad > total/int64(tgt)+97 {
				t.Errorf("Greedy over %d buckets: max load %d, mean %d", tgt, maxLoad, total/int64(tgt))
				return
			}
			ranges := Ranges(weights, tgt)
			last := 0
			for _, r := range ranges {
				if r[0] != last {
					t.Errorf("Ranges not contiguous at %v", r)
					return
				}
				last = r[1]
			}
			if last != len(weights) {
				t.Errorf("Ranges covered %d of %d items", last, len(weights))
				return
			}
		}
	})
}
