package lint

// dataflow.go is the generic forward-dataflow fixpoint engine that
// fsync's rename rule instantiates. An analysis supplies a fact
// type F, the entry fact, a join (merge at control-flow confluences),
// an equality test (has the fact changed?), and a transfer function
// (the effect of one block's nodes on a fact). The engine iterates a
// FIFO worklist to a fixpoint and returns each reachable block's IN
// fact.
//
// Contract: join and transfer must be pure — return a fresh or
// structurally-shared value, never mutate their arguments — because
// the same fact value is joined into several successors. For a
// may-analysis, join is set union and facts grow toward "anything
// could have happened"; for a must-analysis, join keeps only what
// holds on every incoming edge. Either way the lattice must be finite
// (or of bounded height) for the fixpoint to exist; the step budget
// below is a hard backstop so a buggy transfer can never hang lint.

// Forward runs a forward dataflow analysis over g to a fixpoint.
//
// It returns the IN fact of every reachable block (unreachable blocks
// are absent from the map) and whether the analysis converged within
// its step budget. The budget — 64 visits per block plus slack — is
// far beyond what any monotone analysis on these CFGs needs; a false
// return means the transfer/join pair oscillates and the caller
// should discard the result rather than report from it.
func Forward[F any](g *CFG, entry F, join func(F, F) F, equal func(F, F) bool, transfer func(b *Block, in F) F) (map[*Block]F, bool) {
	in := map[*Block]F{g.Entry: entry}
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	budget := 64*len(g.Blocks) + 256

	for len(work) > 0 {
		if budget == 0 {
			return in, false
		}
		budget--
		blk := work[0]
		work = work[1:]
		queued[blk] = false

		out := transfer(blk, in[blk])
		for _, s := range blk.Succs {
			old, seen := in[s]
			next := out
			if seen {
				next = join(old, out)
				if equal(next, old) {
					continue
				}
			}
			in[s] = next
			if !queued[s] {
				work = append(work, s)
				queued[s] = true
			}
		}
	}
	return in, true
}

// eachReachable replays transfer once per reachable block, in block
// index order. Analyzers use it as the deterministic reporting pass
// after Forward converges: the transfer closure flips into reporting
// mode and re-walks each block with its fixpoint IN fact, so every
// diagnostic is emitted exactly once and in source order regardless of
// the worklist's visit order.
func eachReachable[F any](g *CFG, in map[*Block]F, transfer func(b *Block, in F) F) {
	for _, b := range g.Blocks {
		if f, ok := in[b]; ok {
			transfer(b, f)
		}
	}
}
