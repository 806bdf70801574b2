// Command mio runs MIO queries against a dataset file.
//
// Usage:
//
//	mio -data birds.bin -r 4
//	mio -data birds.bin -r 4 -k 10 -workers 8 -algo bigrid
//	mio -data birds.bin -r 4 -algo sg            # simple-grid baseline
//	mio -data birds.bin -r 4 -delta 2 -v         # temporal variant
//	mio -data birds.bin -r 4 -labels ./labelcache -repeat 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"mio"
	"mio/internal/baseline"
)

// options is the parsed command line.
type options struct {
	dataPath, algo, labels, csvCols string
	r, delta                        float64
	k, workers, dims, repeat        int
	interact                        int
	verbose, hist                   bool
}

// temporal reports whether -delta selects the spatio-temporal variant.
// NaN does: the temporal engine refuses it with its own message.
func (o *options) temporal() bool { return !(o.delta < 0) }

// parseFlags parses the command line and refuses the flag combinations
// that would otherwise be silently ignored.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("mio", flag.ContinueOnError)
	fs.StringVar(&o.dataPath, "data", "", "dataset file (.txt or binary)")
	fs.Float64Var(&o.r, "r", 4, "distance threshold")
	fs.IntVar(&o.k, "k", 1, "top-k")
	fs.IntVar(&o.workers, "workers", 1, "CPU cores (≥2 enables parallel processing)")
	fs.StringVar(&o.algo, "algo", "bigrid", "algorithm: bigrid, nl, nlkd, sg")
	fs.StringVar(&o.labels, "labels", "", "directory for the persistent label store (enables BIGrid-label)")
	fs.Float64Var(&o.delta, "delta", -1, "temporal threshold δ (≥0 selects the spatio-temporal variant)")
	fs.IntVar(&o.dims, "dims", 3, "data dimensionality (2 or 3)")
	fs.IntVar(&o.repeat, "repeat", 1, "repeat the query (labels pay off from the 2nd run)")
	fs.BoolVar(&o.verbose, "v", false, "print per-phase statistics")
	fs.IntVar(&o.interact, "interacting", -1, "print the interacting set of this object and exit")
	fs.BoolVar(&o.hist, "hist", false, "print the score distribution histogram and exit")
	fs.StringVar(&o.csvCols, "csv", "", `column mapping "obj,x,y[,z[,t]]" for .csv inputs`)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case o.dataPath == "":
		return nil, errors.New("missing -data")
	case o.algo != "bigrid" && o.algo != "nl" && o.algo != "nlkd" && o.algo != "sg":
		return nil, fmt.Errorf("unknown algorithm %q", o.algo)
	case o.temporal() && o.algo != "bigrid":
		return nil, fmt.Errorf("-delta runs the temporal BIGrid engine: -algo %s has no temporal variant", o.algo)
	case o.temporal() && o.labels != "":
		return nil, errors.New("-delta cannot be combined with -labels: the temporal engine takes no label store")
	case o.temporal() && (o.interact >= 0 || o.hist):
		return nil, errors.New("-interacting and -hist have no temporal variant")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fatal(err)
	}
	var ds *mio.Dataset
	if o.csvCols != "" {
		parts := strings.Split(o.csvCols, ",")
		if len(parts) < 3 || len(parts) > 5 {
			fatal(`-csv wants "obj,x,y[,z[,t]]"`)
		}
		cols := mio.CSVColumns{Obj: parts[0], X: parts[1], Y: parts[2]}
		if len(parts) >= 4 {
			cols.Z = parts[3]
		}
		if len(parts) == 5 {
			cols.T = parts[4]
		}
		ds, err = mio.LoadCSVFile(o.dataPath, cols)
	} else {
		ds, err = mio.LoadDataset(o.dataPath)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(ds.Summary())

	// Engine options common to the spatial and the temporal variant.
	var opts []mio.Option
	if o.workers > 1 {
		opts = append(opts, mio.WithWorkers(o.workers))
	}
	if o.dims == 2 {
		opts = append(opts, mio.With2D())
	}

	if o.interact >= 0 || o.hist {
		eng, err := mio.NewEngine(ds)
		if err != nil {
			fatal(err)
		}
		if o.interact >= 0 {
			set, err := eng.InteractingSet(o.r, o.interact)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("object %d interacts with %d objects: %v\n", o.interact, len(set), set)
			return
		}
		scores, err := eng.AllScores(o.r)
		if err != nil {
			fatal(err)
		}
		counts, width := mio.ScoreHistogram(scores, 12)
		for i, c := range counts {
			fmt.Printf("score %4d-%-4d : %d\n", i*width, (i+1)*width-1, c)
		}
		fmt.Printf("p50=%d p90=%d p99=%d max=%d\n",
			mio.TopPercentile(scores, 0.5), mio.TopPercentile(scores, 0.9),
			mio.TopPercentile(scores, 0.99), mio.TopPercentile(scores, 1.0))
		return
	}

	var query func() (*mio.Result, error)
	switch {
	case o.temporal():
		eng, err := mio.NewTemporalEngine(ds, opts...)
		if err != nil {
			fatal(err)
		}
		query = func() (*mio.Result, error) { return eng.QueryTopK(o.r, o.delta, o.k) }
	case o.algo == "bigrid":
		if o.labels != "" {
			opts = append(opts, mio.WithDiskLabels(o.labels))
		}
		eng, err := mio.NewEngine(ds, opts...)
		if err != nil {
			fatal(err)
		}
		query = func() (*mio.Result, error) { return eng.QueryTopK(o.r, o.k) }
	case o.algo == "nl":
		printBaseline(baseline.NL(ds, o.r, o.k))
		return
	case o.algo == "nlkd":
		printBaseline(baseline.NLKD(ds, o.r, o.k))
		return
	default:
		printBaseline(baseline.SG(ds, o.r, o.k))
		return
	}
	for run := 0; run < o.repeat; run++ {
		res, err := query()
		if err != nil {
			fatal(err)
		}
		printTopK(res.TopK)
		fmt.Printf("run %d: total %v (labels: %v)\n", run+1, res.Stats.Total(), res.Stats.UsedLabels)
		if o.verbose {
			st := res.Stats
			fmt.Printf("  label-input    %v\n  grid-mapping   %v\n  lower-bounding %v\n  upper-bounding %v\n  verification   %v\n",
				st.LabelInput, st.GridMapping, st.LowerBounding, st.UpperBounding, st.Verification)
			fmt.Printf("  candidates %d, verified %d, dist-comps %d, index %.2f MiB\n",
				st.Candidates, st.Verified, st.DistanceComps, float64(st.IndexBytes)/(1<<20))
		}
	}
}

func printTopK(top []mio.Scored) {
	for i, s := range top {
		fmt.Printf("#%d object %d  score %d\n", i+1, s.Obj, s.Score)
	}
}

func printBaseline(top []baseline.Scored) {
	for i, s := range top {
		fmt.Printf("#%d object %d  score %d\n", i+1, s.Obj, s.Score)
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "mio:", v)
	os.Exit(1)
}
