// Package core implements the paper's MIO query processing pipeline:
// online BIGrid construction (Algorithm 3), lower-bounding with the
// small-grid (Algorithm 4), upper-bounding and pruning with the
// large-grid (Algorithm 5), best-first verification with early
// termination (Algorithm 6, Corollary 1), the top-k variant, the
// point-labeling scheme that recycles work across queries sharing ⌈r⌉
// (§III-D), the parallel variants of every phase (§IV), and the
// temporal extension (Appendix B).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/fault"
	"mio/internal/grid"
)

// LBStrategy selects the parallel lower-bounding partitioning of §IV.
type LBStrategy int

const (
	// LBGreedyD partitions the object set O across cores with a greedy
	// multiway number partition on key-list sizes ("dividing O").
	LBGreedyD LBStrategy = iota
	// LBHashP partitions each object's key list across cores with local
	// bitsets merged afterwards ("dividing P_i").
	LBHashP
)

func (s LBStrategy) String() string {
	if s == LBHashP {
		return "LB-hash-p"
	}
	return "LB-greedy-d"
}

// UBStrategy selects the parallel upper-bounding partitioning of §IV.
type UBStrategy int

const (
	// UBGreedyP assigns point groups P_{i,K} to cores greedily using the
	// Eq. (3) cost model.
	UBGreedyP UBStrategy = iota
	// UBGreedyD greedily partitions O by |P_i|, ignoring per-point cost
	// differences (the paper's strawman competitor).
	UBGreedyD
)

func (s UBStrategy) String() string {
	if s == UBGreedyD {
		return "UB-greedy-d"
	}
	return "UB-greedy-p"
}

// Options configures an Engine.
type Options struct {
	// Dims is the data dimensionality, 2 or 3 (default 3). It only
	// affects the small-grid cell width (r/√2 vs r/√3). The wider 2-D
	// cell keeps same-cell points within r only when they have no Z
	// separation, so NewEngine refuses Dims 2 unless every point of the
	// dataset carries the same Z.
	Dims int
	// Workers is the number of CPU cores to use; values below 2 select
	// the single-core algorithms of §III.
	Workers int
	// LB and UB pick the parallel partitioning strategies (§IV). They
	// are ignored when Workers < 2.
	LB LBStrategy
	UB UBStrategy
	// Labels, when non-nil, enables §III-D: queries consult the store
	// for labels matching ⌈r⌉ and, when none exist, collect and save
	// them as a side effect.
	Labels *labelstore.Store
	// Faults, when non-nil, is consulted at the entry of every pipeline
	// phase (the internal/fault points "engine.label_input" through
	// "engine.verification") so chaos tests can inject latency spikes,
	// errors and panics into a running engine. Nil costs one pointer
	// check per phase.
	Faults *fault.Registry
}

func (o Options) dims() int {
	if o.Dims == 2 {
		return 2
	}
	return 3
}

func (o Options) workers() int {
	if o.Workers < 2 {
		return 1
	}
	return o.Workers
}

// Scored pairs an object id with its exact MIO score.
//
// The json tags on Scored, Result, PhaseStats and SweepResult define
// the wire format served by internal/server and are a compatibility
// surface: snake_case names, durations in nanoseconds (_ns suffix).
type Scored struct {
	Obj   int `json:"obj"`
	Score int `json:"score"`
}

// Outranks reports whether s comes before o in the canonical answer
// order: score descending, object id ascending on ties. Every list of
// answers the engine or a shard merge returns is in this order, and a
// degraded answer's Best is the first in it (Certificate.Join).
func (s Scored) Outranks(o Scored) bool {
	return s.Score > o.Score || s.Score == o.Score && s.Obj < o.Obj
}

// PhaseStats records the per-phase wall-clock breakdown of one query
// (the paper's Table II) plus work counters.
type PhaseStats struct {
	LabelInput    time.Duration `json:"label_input_ns"`
	GridMapping   time.Duration `json:"grid_mapping_ns"`
	LowerBounding time.Duration `json:"lower_bounding_ns"`
	UpperBounding time.Duration `json:"upper_bounding_ns"`
	Verification  time.Duration `json:"verification_ns"`

	UsedLabels bool `json:"used_labels"` // ran the §III-D variants
	// LabelPersistFailed reports that collected labels could not be
	// committed to the store's disk backing; the answer is still exact
	// and the labels stay warm in memory for this process.
	LabelPersistFailed bool `json:"label_persist_failed,omitempty"`
	LabelBytes         int  `json:"label_bytes"` // size of the label set read (O(nm) per §III-D)
	Candidates         int  `json:"candidates"`  // |O_cand| after upper-bounding
	// Verified counts the candidates whose exact score a walk computed;
	// a score the engine's memo (memo.go) settles takes no walk.
	Verified int `json:"verified"`
	// DistanceComps counts the point pairs a scalar break-on-first-hit
	// scan of each probed posting touches during verification: up to and
	// including the first point within r, or the whole posting on a
	// miss. The 4-wide kernel may evaluate a few pairs past a hit; they
	// are not counted, so on a cold engine the number is a function of
	// the query alone. Candidates, Verified, DistanceComps and
	// AdjComputed of a warm engine also depend on the scores its memo
	// recorded before, and are at most a cold engine's.
	DistanceComps int `json:"distance_comps"`
	// AdjComputed counts the distinct large cells of the groups of the
	// objects that needed Lemma 2's bound (the survivors of the count
	// bound, computeUpperBounds), plus the cells whose b^adj
	// verification read: the number a run on a private grid with an
	// empty entry builds. A survivor's cells count whether their b^adj
	// was built, found memoised on a group's shared grid, or not needed
	// because the upper-bounding entry (ubcache.go) held its τ^upp, so
	// the counter does not depend on that entry.
	AdjComputed int `json:"adj_computed"`

	SmallCells int `json:"small_cells"`
	LargeCells int `json:"large_cells"`
	// LargeBuilds counts the large grids the query built: 1 on a cold
	// engine, 0 when it found its ⌈r⌉ entry and read no large grid or
	// its warm one (IndexCacheStats.LargeBuilds), a count per shard on a
	// scattered query. LargeCells and the byte counts are the grid's
	// either way.
	LargeBuilds int `json:"large_builds"`
	IndexBytes  int `json:"index_bytes"` // BIGrid memory footprint, without the memoised b^adj
	// Compression accounting (footnote 4 of the paper): the small grid
	// as stored — a key and a sorted object-id run per cell — vs what
	// dense n-bit-per-cell bitsets would occupy.
	SmallGridBytes             int `json:"small_grid_bytes"`
	SmallGridUncompressedBytes int `json:"small_grid_uncompressed_bytes"`
	LargeGridBytes             int `json:"large_grid_bytes"`
}

// Total returns the end-to-end processing time.
func (s PhaseStats) Total() time.Duration {
	return s.LabelInput + s.GridMapping + s.LowerBounding + s.UpperBounding + s.Verification
}

// Interval is a degraded answer's closed score interval [LB, UB]: LB
// is Best's certified lower bound and UB a certified upper bound on the
// optimum, so the exact answer's score lies inside it (the contract is
// stated once on Certificate).
type Interval struct {
	LB int `json:"lb"`
	UB int `json:"ub"`
}

// Result is the answer to an MIO query.
type Result struct {
	// Best is the most interactive object and its score. For k > 1 it
	// is TopK[0]. On a degraded result Best.Score is the certified
	// lower bound Interval.LB, not the exact score.
	Best Scored `json:"best"`
	// TopK holds the k best objects in non-increasing score order. A
	// degraded result carries only Best.
	TopK  []Scored   `json:"top_k"`
	Stats PhaseStats `json:"stats"`

	// Degraded marks a partial answer: the query was stopped
	// mid-pipeline (RunTopKContext with degrade set), or shards were
	// late or down (shard.Coordinator.Query). Best is the best object
	// certified, and Interval brackets both its exact score and the
	// optimum's (Certificate.Result).
	Degraded bool      `json:"degraded,omitempty"`
	Interval *Interval `json:"interval,omitempty"`
}

// Engine processes MIO queries over one static, memory-resident
// dataset.
type Engine struct {
	// ds is the view of the caller's dataset in internal order
	// (order.go), the only numbering inside the pipeline; ext is the
	// caller's dataset, and ord translates between the two. pts numbers
	// ds's points for every grid.Build.
	ds   *data.Dataset
	ext  *data.Dataset
	ord  idOrder
	pts  *grid.Points
	opts Options
	// maxAbs is the largest |coordinate| in ds; validate holds every r
	// against it.
	maxAbs float64
	// ub is the τ^upp cache (ubcache.go) with its warm grids, and memo
	// the exact scores the walks found (memo.go), both shared by every
	// query the engine runs.
	ub   *ubCache
	memo *scoreMemo
}

// NewEngine returns an engine over ds. The dataset must satisfy
// Validate and must not be mutated afterwards. Object ids passed to and
// returned by the engine are ds's; inside, it runs on its own spatial
// order (order.go).
func NewEngine(ds *data.Dataset, opts Options) (*Engine, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if ds.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if n := ds.TotalPoints(); n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d points, at most %d", ErrTooManyPoints, n, math.MaxInt32)
	}
	if opts.Dims != 0 && opts.Dims != 2 && opts.Dims != 3 {
		return nil, fmt.Errorf("core: invalid Dims %d (want 2 or 3)", opts.Dims)
	}
	if opts.Dims == 2 {
		// Lemma 1 needs same-cell points within r: with r/√2 cells that
		// holds in the plane only, and a lower bound inflated by a Z gap
		// prunes the true answer without any error. A pass of its own,
		// so the default path pays nothing for it.
		z := ds.Objects[0].Pts[0].Z
		for i := range ds.Objects {
			for _, p := range ds.Objects[i].Pts {
				if p.Z != z {
					return nil, fmt.Errorf("core: Dims 2 needs planar data: object %d has a point at z=%g, the first point of the dataset is at z=%g", i, p.Z, z)
				}
			}
		}
	}
	view, ord := spatialOrder(ds)
	e := &Engine{ds: view, ext: ds, ord: ord, pts: grid.NewPoints(view), opts: opts, ub: newUBCache(ds.TotalPoints()), memo: newScoreMemo()}
	for i := range ds.Objects {
		for _, p := range ds.Objects[i].Pts {
			// Plain comparisons: engines are built per query by one-shot
			// callers, and the NaN-aware builtin max measured 4x this.
			for _, c := range [...]float64{p.X, p.Y, p.Z} {
				if c = math.Abs(c); c > e.maxAbs {
					e.maxAbs = c
				}
			}
		}
	}
	return e, nil
}

// ErrTooManyPoints is what NewEngine returns for a dataset of more than
// math.MaxInt32 points, the most the grids' int32 point numbers and
// posting offsets can address.
var ErrTooManyPoints = errors.New("core: too many points")

// ErrInvalidQuery marks a query the engine refuses for its parameters:
// the caller's mistake, not a fault of the engine, shard or worker that
// reported it, so serving layers answer 400 and charge no breaker.
var ErrInvalidQuery = errors.New("core: invalid query")

// validate rejects, with an ErrInvalidQuery, a query this engine cannot
// answer: a non-positive (or NaN) r or k, or an r so small against the
// dataset's extent that the cell coordinates floor(p/width) and their
// ±1 neighbours leave int32 — grid.KeyFor would wrap silently and
// distant points would share cells. The small grid has the narrower
// cells, so it sets the limit.
func (e *Engine) validate(r float64, k int) error {
	if !(r > 0) {
		return fmt.Errorf("%w: distance threshold must be positive, got %g", ErrInvalidQuery, r)
	}
	if k < 1 {
		return fmt.Errorf("%w: k must be at least 1, got %d", ErrInvalidQuery, k)
	}
	if e.maxAbs/grid.SmallWidth(r, e.opts.dims()) >= math.MaxInt32 {
		return fmt.Errorf("%w: r=%g is too small for coordinates up to ±%g: cell keys would overflow int32", ErrInvalidQuery, r, e.maxAbs)
	}
	return nil
}

// Dataset returns the dataset the engine was built over.
func (e *Engine) Dataset() *data.Dataset { return e.ext }

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// IndexCache reports the lookups of the engine's τ^upp cache and what
// its score memo holds, which every query it runs shares.
func (e *Engine) IndexCache() IndexCacheStats {
	st := e.ub.stats()
	st.Memo = e.memo.stats()
	return st
}

// Run processes an MIO query with threshold r and returns the most
// interactive object.
func (e *Engine) Run(r float64) (*Result, error) { return e.RunTopK(r, 1) }

// RunTopK is RunTopKContext without cancellation.
func (e *Engine) RunTopK(r float64, k int) (*Result, error) {
	return e.RunTopKContext(context.Background(), r, k, false)
}

// RunTopKContext processes the top-k variant: the k objects with the
// highest scores (§III-C), k clamped to the dataset size. The query
// checks ctx between pipeline phases and periodically inside them and
// returns ctx.Err() once it has expired — unless degrade is set and the
// lower-bounding phase has completed: then the work already done is not
// discarded and the call returns a degraded Result (Certificate.Result)
// whose Best is certified to score at least Interval.LB and whose
// Interval.UB no object's score exceeds. Expiry before lower bounding
// completes returns ctx.Err() either way: no sound bound exists yet. A
// query whose verification ran to its end answers exactly, whenever
// ctx expires.
func (e *Engine) RunTopKContext(ctx context.Context, r float64, k int, degrade bool) (*Result, error) {
	if err := e.validate(r, k); err != nil {
		return nil, err
	}
	q := newQuery(e, r, k)
	q.ctx = ctx
	q.degradeOK = degrade
	return q.run()
}

// Explain renders a human-readable account of what the pipeline did
// for this result: phase times, pruning effectiveness and index
// footprint. It is a debugging and teaching aid, not a stable format.
func (r *Result) Explain(n int) string {
	st := r.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "answer: object %d with score %d (top-%d returned)\n",
		r.Best.Obj, r.Best.Score, len(r.TopK))
	if st.UsedLabels {
		fmt.Fprintf(&b, "labels: reused %.2f MiB of per-point labels (loaded in %v)\n",
			float64(st.LabelBytes)/(1<<20), st.LabelInput)
	}
	fmt.Fprintf(&b, "grid mapping:   %10v  (%d small cells, %d large cells, %.2f MiB index)\n",
		st.GridMapping, st.SmallCells, st.LargeCells, float64(st.IndexBytes)/(1<<20))
	if st.LargeBuilds == 0 {
		fmt.Fprintf(&b, "                built no large grid: mapped the small grid alone, beside what the engine kept for ⌈r⌉\n")
	}
	fmt.Fprintf(&b, "lower bounding: %10v\n", st.LowerBounding)
	fmt.Fprintf(&b, "upper bounding: %10v  (%d adjacency bitsets built)\n",
		st.UpperBounding, st.AdjComputed)
	pruned := n - st.Candidates
	fmt.Fprintf(&b, "pruning:        %d of %d objects eliminated without any distance computation (%.1f%%)\n",
		pruned, n, 100*float64(pruned)/float64(max(n, 1)))
	fmt.Fprintf(&b, "verification:   %10v  (%d of %d candidates verified, %d distance computations)\n",
		st.Verification, st.Verified, st.Candidates, st.DistanceComps)
	fmt.Fprintf(&b, "total:          %10v\n", st.Total())
	return b.String()
}
