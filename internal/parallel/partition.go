// Package parallel provides the load-balancing primitives of §IV: the
// greedy multiway number partitioning heuristic (optimal partitioning
// is NP-complete, Theorem 3), contiguous range splitting, and a small
// worker-pool helper.
package parallel

import "sync"

// Greedy assigns items with the given weights to t buckets using the
// paper's incremental greedy heuristic: items are visited in order and
// each goes to the bucket with the smallest cumulative weight. It
// returns the item indices per bucket.
func Greedy(weights []int, t int) [][]int {
	if t < 1 {
		t = 1
	}
	buckets := make([][]int, t)
	loads := make([]int64, t)
	for i, w := range weights {
		best := 0
		for b := 1; b < t; b++ {
			if loads[b] < loads[best] {
				best = b
			}
		}
		buckets[best] = append(buckets[best], i)
		loads[best] += int64(w)
	}
	return buckets
}

// Ranges splits items 0..n-1 into at most t contiguous ranges with
// near-equal total weight, preserving order. It returns (lo, hi) pairs;
// every item belongs to exactly one range. Used where processing order
// must stay monotone in item index (e.g. bitset append order during
// grid building).
func Ranges(weights []int, t int) [][2]int {
	n := len(weights)
	if t < 1 {
		t = 1
	}
	if t > n {
		t = n
	}
	if n == 0 {
		return nil
	}
	total := int64(0)
	for _, w := range weights {
		total += int64(w)
	}
	out := make([][2]int, 0, t)
	lo := 0
	acc := int64(0)
	emitted := 0
	for i := 0; i < n; i++ {
		acc += int64(weights[i])
		remainingRanges := t - emitted
		if remainingRanges <= 1 {
			continue
		}
		// Close the range once it reaches its fair share of what is
		// left.
		if acc*int64(remainingRanges) >= total {
			out = append(out, [2]int{lo, i + 1})
			emitted++
			total -= acc
			acc = 0
			lo = i + 1
		}
	}
	if lo < n {
		out = append(out, [2]int{lo, n})
	}
	return out
}

// Run executes fn(worker) on t goroutines and waits for all of them.
func Run(t int, fn func(worker int)) {
	if t <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(t)
	for w := 0; w < t; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
