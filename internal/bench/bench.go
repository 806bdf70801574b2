// Package bench regenerates every table and figure of the paper's
// evaluation (§V) on the stand-in datasets: Fig. 5 (runtime and memory
// vs r), Table II (per-phase breakdown), Fig. 6 (scalability), Fig. 7
// (top-k), Fig. 8 (parallel partitioning strategies), Fig. 9 (parallel
// algorithms), Table III (speedup ratios) and the Appendix-A ablation.
// Absolute numbers differ from the paper's C++/Xeon testbed; the shapes
// — who wins, by roughly what factor, where crossovers fall — are the
// reproduction target (see EXPERIMENTS.md).
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"mio/internal/data"
)

// Suite configures one harness run.
type Suite struct {
	// CSV switches the output from aligned text tables to CSV blocks
	// (one per table, preceded by a "# title" comment line), for
	// plotting.
	CSV bool

	// Scale multiplies the default dataset sizes (1.0 ≈ tens of
	// seconds for the full suite; the paper-shaped behaviours are
	// visible from ~0.3 up).
	Scale float64
	// Rs is the distance-threshold sweep (default 4, 6, 8, 10, as §V-B).
	Rs []float64
	// Workers is the core-count sweep for the parallel experiments
	// (default 1, 2, 4, ... up to GOMAXPROCS).
	Workers []int
	// NLPointLimit skips the nested-loop baseline on datasets with more
	// total points (NL is quadratic; the paper curbs it with an 8-hour
	// timeout, we curb it by size).
	NLPointLimit int
	// Out receives the rendered tables.
	Out io.Writer

	datasets map[string]*data.Dataset
}

// NewSuite returns a Suite with the defaults described above.
func NewSuite(out io.Writer) *Suite {
	return &Suite{
		Scale:        1.0,
		Rs:           []float64{4, 6, 8, 10},
		Workers:      defaultWorkers(),
		NLPointLimit: 200_000,
		Out:          out,
	}
}

func defaultWorkers() []int {
	maxW := runtime.GOMAXPROCS(0)
	ws := []int{1}
	for w := 2; w <= maxW && w <= 12; w *= 2 {
		ws = append(ws, w)
	}
	if last := ws[len(ws)-1]; last < maxW && maxW <= 12 {
		ws = append(ws, maxW)
	}
	return ws
}

// DatasetNames is the fixed presentation order of the stand-ins,
// following Table I.
var DatasetNames = []string{"Neuron", "Neuron-2", "Bird", "Bird-2", "Syn"}

// Datasets generates (once) and returns the stand-in datasets at the
// suite's scale.
func (s *Suite) Datasets() map[string]*data.Dataset {
	if s.datasets == nil {
		s.datasets = data.Standard(s.Scale)
	}
	return s.datasets
}

// Experiments maps experiment ids (as accepted by cmd/miobench) to
// their runners, in presentation order.
func (s *Suite) Experiments() []Experiment {
	return []Experiment{
		{"table1", "Dataset statistics (Table I)", s.Table1},
		{"fig5", "Runtime vs r, all algorithms (Fig. 5a-e)", s.Fig5Time},
		{"fig5mem", "Index memory vs r (Fig. 5f-j)", s.Fig5Mem},
		{"table2", "Per-phase breakdown, BIGrid vs BIGrid-label (Table II)", s.Table2},
		{"fig6", "Scalability vs sampling rate (Fig. 6)", s.Fig6},
		{"fig7", "Top-k runtime vs k (Fig. 7)", s.Fig7},
		{"fig8", "Parallel partitioning strategies (Fig. 8)", s.Fig8},
		{"fig9", "Parallel algorithms vs cores (Fig. 9)", s.Fig9},
		{"table3", "Speedup ratios vs cores (Table III)", s.Table3},
		{"appa", "Online-vs-offline grid & bitset ablations (Appendix A)", s.AppendixA},
	}
}

// Experiment is one runnable table/figure reproduction.
type Experiment struct {
	ID   string
	Desc string
	Run  func() error
}

// RunAll executes every experiment in order.
func (s *Suite) RunAll() error {
	for _, e := range s.Experiments() {
		if err := e.Run(); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// Run executes the experiments with the given ids ("all" runs
// everything).
func (s *Suite) Run(ids ...string) error {
	if len(ids) == 1 && ids[0] == "all" {
		return s.RunAll()
	}
	byID := map[string]Experiment{}
	for _, e := range s.Experiments() {
		byID[e.ID] = e
	}
	for _, id := range ids {
		e, ok := byID[id]
		if !ok {
			known := make([]string, 0, len(byID))
			for k := range byID {
				known = append(known, k)
			}
			sort.Strings(known)
			return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
		}
		if err := e.Run(); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// timeIt runs fn once and returns the wall-clock duration.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// table renders an aligned text table.
type table struct {
	title  string
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

// fprintCSV renders the table as a CSV block with a title comment.
func (t *table) fprintCSV(w io.Writer) {
	fmt.Fprintf(w, "\n# %s\n", t.title)
	cw := csv.NewWriter(w)
	cw.Write(t.header)
	for _, r := range t.rows {
		cw.Write(r)
	}
	cw.Flush()
}

func (t *table) fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.title)
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, r := range t.rows {
		printRow(r)
	}
}

// ms formats a duration as milliseconds with 3 significant decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

// mb formats a byte count as mebibytes.
func mb(b int) string {
	return fmt.Sprintf("%.3f", float64(b)/(1<<20))
}

// emit renders one table in the suite's configured format.
func (s *Suite) emit(t *table) {
	if s.CSV {
		t.fprintCSV(s.Out)
		return
	}
	t.fprint(s.Out)
}
