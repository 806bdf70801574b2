package mio

import (
	"context"
	"fmt"
	"io"
	"os"

	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/geom"
)

// Point is a point in 3-D space; planar data uses Z = 0.
type Point = geom.Point

// Pt constructs a Point.
func Pt(x, y, z float64) Point { return geom.Pt(x, y, z) }

// Object is a spatial object: a set of points, optionally timestamped
// (timestamps are used only by TemporalEngine).
type Object = data.Object

// Dataset is a static, memory-resident collection of objects.
type Dataset = data.Dataset

// Scored pairs an object id with its interaction score.
type Scored = core.Scored

// Result is the answer to a query: the best object, the top-k list and
// the per-phase statistics of the run.
type Result = core.Result

// PhaseStats is the per-phase wall-clock and work breakdown of a query
// (the shape of the paper's Table II).
type PhaseStats = core.PhaseStats

// LBStrategy selects the parallel lower-bounding partitioning (§IV of
// the paper).
type LBStrategy = core.LBStrategy

// UBStrategy selects the parallel upper-bounding partitioning.
type UBStrategy = core.UBStrategy

// Parallel partitioning strategies. The greedy-d/greedy-p defaults are
// the paper's recommended choices; the alternatives exist for the
// Fig. 8 comparison and for workloads that happen to favour them.
const (
	LBGreedyD = core.LBGreedyD // divide objects greedily by key-list size (default)
	LBHashP   = core.LBHashP   // divide each object's key list across cores
	UBGreedyP = core.UBGreedyP // cost-based point-group partition (default)
	UBGreedyD = core.UBGreedyD // divide objects greedily by point count
)

// NewDataset builds a dataset from point sets. Objects are numbered in
// input order.
func NewDataset(name string, objects [][]Point) (*Dataset, error) {
	ds := &Dataset{Name: name}
	for i, pts := range objects {
		ds.Objects = append(ds.Objects, Object{ID: i, Pts: pts})
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// LoadDataset reads a dataset from a file: ".txt" selects the text
// format ("objID x y z [t]" per line), anything else the binary format.
func LoadDataset(path string) (*Dataset, error) { return data.LoadFile(path) }

// SaveDataset writes a dataset to a file, picking the format by
// extension as LoadDataset does.
func SaveDataset(path string, ds *Dataset) error { return data.SaveFile(path, ds) }

// Option configures an Engine or TemporalEngine.
type Option func(*core.Options) error

// WithWorkers enables the parallel algorithms of §IV on t cores
// (t < 2 selects the single-core pipeline).
func WithWorkers(t int) Option {
	return func(o *core.Options) error {
		if t < 0 {
			return fmt.Errorf("mio: negative worker count %d", t)
		}
		o.Workers = t
		return nil
	}
}

// With2D declares the dataset planar, widening the small-grid cells
// from r/√3 to r/√2 for tighter lower bounds. NewEngine refuses it
// unless every point has the same Z: on other data the wider cells
// would silently prune the true answer.
func With2D() Option {
	return func(o *core.Options) error {
		o.Dims = 2
		return nil
	}
}

// WithLabels enables the §III-D labeling scheme with an in-memory
// store: the first query for each ⌈r⌉ records per-point labels, and
// every later query sharing that ceiling skips the labelled points.
func WithLabels() Option {
	return func(o *core.Options) error {
		o.Labels = labelstore.NewStore()
		return nil
	}
}

// WithDiskLabels enables labeling with a store persisted under dir, so
// labels survive the process — the external-memory deployment the paper
// analyses (O(nm/B) label I/O per query).
func WithDiskLabels(dir string) Option {
	return func(o *core.Options) error {
		s, err := labelstore.NewDiskStore(dir)
		if err != nil {
			return err
		}
		o.Labels = s
		return nil
	}
}

// WithLBStrategy selects the parallel lower-bounding partition.
func WithLBStrategy(s LBStrategy) Option {
	return func(o *core.Options) error {
		o.LB = s
		return nil
	}
}

// WithUBStrategy selects the parallel upper-bounding partition.
func WithUBStrategy(s UBStrategy) Option {
	return func(o *core.Options) error {
		o.UB = s
		return nil
	}
}

func buildOptions(opts []Option) (core.Options, error) {
	var o core.Options
	for _, apply := range opts {
		if err := apply(&o); err != nil {
			return core.Options{}, err
		}
	}
	return o, nil
}

// Engine processes MIO queries over one dataset. It is safe to issue
// queries sequentially; a single Engine must not run queries
// concurrently with itself.
type Engine struct {
	inner *core.Engine
}

// NewEngine returns an engine over ds. The dataset must not be mutated
// afterwards.
func NewEngine(ds *Dataset, opts ...Option) (*Engine, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewEngine(ds, o)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner}, nil
}

// Query returns the most interactive object for distance threshold r.
func (e *Engine) Query(r float64) (*Result, error) { return e.inner.Run(r) }

// QueryTopK returns the k most interactive objects for threshold r.
func (e *Engine) QueryTopK(r float64, k int) (*Result, error) { return e.inner.RunTopK(r, k) }

// Dataset returns the engine's dataset.
func (e *Engine) Dataset() *Dataset { return e.inner.Dataset() }

// TemporalEngine processes spatio-temporal MIO queries (Appendix B of
// the paper): objects interact when a point pair is within distance r
// and within δ in generation time. Every object must carry timestamps.
type TemporalEngine struct {
	inner *core.TemporalEngine
}

// NewTemporalEngine returns a temporal engine over ds.
func NewTemporalEngine(ds *Dataset, opts ...Option) (*TemporalEngine, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewTemporalEngine(ds, o)
	if err != nil {
		return nil, err
	}
	return &TemporalEngine{inner: inner}, nil
}

// Query returns the most interactive object under thresholds (r, δ).
func (e *TemporalEngine) Query(r, delta float64) (*Result, error) { return e.inner.Run(r, delta) }

// QueryTopK returns the k most interactive objects under (r, δ).
func (e *TemporalEngine) QueryTopK(r, delta float64, k int) (*Result, error) {
	return e.inner.RunTopK(r, delta, k)
}

// CSVColumns maps dataset fields to CSV column names for LoadCSV.
type CSVColumns = data.CSVColumns

// LoadCSV parses a headered CSV stream (e.g. a movebank.org tracking
// export) into a dataset: rows are grouped into objects by the Obj
// column, preserving row order within each object.
func LoadCSV(r io.Reader, cols CSVColumns) (*Dataset, error) {
	return data.ReadCSV(r, cols)
}

// LoadCSVFile is LoadCSV over a file path.
func LoadCSVFile(path string, cols CSVColumns) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return data.ReadCSV(f, cols)
}

// QueryContext is Query with cancellation: the engine checks ctx
// between pipeline phases and periodically inside them.
func (e *Engine) QueryContext(ctx context.Context, r float64) (*Result, error) {
	return e.inner.RunTopKContext(ctx, r, 1, false)
}

// QueryTopKContext is QueryTopK with cancellation.
func (e *Engine) QueryTopKContext(ctx context.Context, r float64, k int) (*Result, error) {
	return e.inner.RunTopKContext(ctx, r, k, false)
}
