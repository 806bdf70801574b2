package shard

import (
	"sort"

	"mio/internal/core"
)

// The bound-merge algebra (DESIGN.md §15):
//
//   - floor: the k-th highest entry of the union of per-shard TopLBs.
//     Every entry is a certified lower bound of a distinct global
//     object's score (primaries only — no object appears twice), so at
//     least k objects score ≥ floor and floor is a sound global
//     verification threshold.
//   - shard pruning: a shard with MaxUB < floor (strictly — ties may
//     still tie into the top-k) cannot contribute any answer, so its
//     verification is skipped before it costs anything.
//   - result merge: per-shard top-k lists are exact primary scores.
//     The global canonical top-k restricted to one shard's primaries
//     is a prefix of that shard's canonical order, hence contained in
//     its local top-k; merging the lists in canonical order and
//     truncating at k therefore reproduces the single-engine answer
//     exactly.

// mergeFloor returns the k-th highest score among the merged per-shard
// lower-bound lists, or 0 when fewer than k bounds survived.
func mergeFloor(tops [][]core.Scored, k int) int {
	var all []int
	for _, t := range tops {
		for _, s := range t {
			all = append(all, s.Score)
		}
	}
	if len(all) < k {
		return 0
	}
	sort.Sort(sort.Reverse(sort.IntSlice(all)))
	return all[k-1]
}

// mergeTopK merges per-shard exact top-k lists (already mapped to
// global ids) into the global top-k in the canonical order
// (core.Scored.Outranks).
func mergeTopK(lists [][]core.Scored, k int) []core.Scored {
	var all []core.Scored
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Outranks(all[b]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// mergeStats folds per-shard phase stats into the response's single
// PhaseStats. Work counters sum — the scattered query really did all
// of it, and the sum is deterministic because every shard's pipeline
// is. Durations take the per-phase maximum: shards run concurrently,
// so the slowest shard is what the caller waited for. Index footprints
// sum (every shard's grid exists at once).
func mergeStats(sts []core.PhaseStats) core.PhaseStats {
	var out core.PhaseStats
	maxDur := func(a, b *core.PhaseStats) {
		if b.LabelInput > a.LabelInput {
			a.LabelInput = b.LabelInput
		}
		if b.GridMapping > a.GridMapping {
			a.GridMapping = b.GridMapping
		}
		if b.LowerBounding > a.LowerBounding {
			a.LowerBounding = b.LowerBounding
		}
		if b.UpperBounding > a.UpperBounding {
			a.UpperBounding = b.UpperBounding
		}
		if b.Verification > a.Verification {
			a.Verification = b.Verification
		}
	}
	for i := range sts {
		st := &sts[i]
		maxDur(&out, st)
		out.UsedLabels = out.UsedLabels || st.UsedLabels
		out.LabelPersistFailed = out.LabelPersistFailed || st.LabelPersistFailed
		out.LabelBytes += st.LabelBytes
		out.Candidates += st.Candidates
		out.Verified += st.Verified
		out.DistanceComps += st.DistanceComps
		out.AdjComputed += st.AdjComputed
		out.SmallCells += st.SmallCells
		out.LargeCells += st.LargeCells
		out.LargeBuilds += st.LargeBuilds
		out.IndexBytes += st.IndexBytes
		out.SmallGridBytes += st.SmallGridBytes
		out.SmallGridUncompressedBytes += st.SmallGridUncompressedBytes
		out.LargeGridBytes += st.LargeGridBytes
	}
	return out
}

// toGlobal maps a shard-local scored list to global object ids.
func toGlobal(global []int32, list []core.Scored) []core.Scored {
	out := make([]core.Scored, len(list))
	for i, s := range list {
		out[i] = core.Scored{Obj: int(global[s.Obj]), Score: s.Score}
	}
	return out
}
