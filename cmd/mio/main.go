// Command mio runs MIO queries against a dataset file.
//
// Usage:
//
//	mio -data birds.bin -r 4
//	mio -data birds.bin -r 4 -k 10 -workers 8 -algo bigrid
//	mio -data birds.bin -r 4 -algo sg            # simple-grid baseline
//	mio -data birds.bin -r 4 -delta 2            # temporal variant
//	mio -data birds.bin -r 4 -labels ./labelcache -repeat 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mio"
	"mio/internal/baseline"
)

func main() {
	var (
		dataPath = flag.String("data", "", "dataset file (.txt or binary)")
		r        = flag.Float64("r", 4, "distance threshold")
		k        = flag.Int("k", 1, "top-k")
		workers  = flag.Int("workers", 1, "CPU cores (≥2 enables parallel processing)")
		algo     = flag.String("algo", "bigrid", "algorithm: bigrid, nl, nlkd, sg")
		labels   = flag.String("labels", "", "directory for the persistent label store (enables BIGrid-label)")
		delta    = flag.Float64("delta", -1, "temporal threshold δ (≥0 selects the spatio-temporal variant)")
		dims     = flag.Int("dims", 3, "data dimensionality (2 or 3)")
		repeat   = flag.Int("repeat", 1, "repeat the query (labels pay off from the 2nd run)")
		verbose  = flag.Bool("v", false, "print per-phase statistics")
		interact = flag.Int("interacting", -1, "print the interacting set of this object and exit")
		hist     = flag.Bool("hist", false, "print the score distribution histogram and exit")
		csvCols  = flag.String("csv", "", `column mapping "obj,x,y[,z[,t]]" for .csv inputs`)
	)
	flag.Parse()
	if *dataPath == "" {
		fatal("missing -data")
	}
	var ds *mio.Dataset
	var err error
	if *csvCols != "" {
		parts := strings.Split(*csvCols, ",")
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
		ds, err = mio.LoadCSVFile(*dataPath, cols)
	} else {
		ds, err = mio.LoadDataset(*dataPath)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(ds.Summary())

	// Engine options common to the spatial and the temporal variant.
	var opts []mio.Option
	if *workers > 1 {
		opts = append(opts, mio.WithWorkers(*workers))
	}
	if *dims == 2 {
		opts = append(opts, mio.With2D())
	}

	if !(*delta < 0) { // NaN goes to the temporal engine, which refuses it
		eng, err := mio.NewTemporalEngine(ds, opts...)
		if err != nil {
			fatal(err)
		}
		res, err := eng.QueryTopK(*r, *delta, *k)
		if err != nil {
			fatal(err)
		}
		printTopK(res.TopK)
		return
	}

	if *interact >= 0 || *hist {
		eng, err := mio.NewEngine(ds)
		if err != nil {
			fatal(err)
		}
		if *interact >= 0 {
			set, err := eng.InteractingSet(*r, *interact)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("object %d interacts with %d objects: %v\n", *interact, len(set), set)
			return
		}
		scores, err := eng.AllScores(*r)
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

	switch *algo {
	case "bigrid":
		if *labels != "" {
			opts = append(opts, mio.WithDiskLabels(*labels))
		}
		eng, err := mio.NewEngine(ds, opts...)
		if err != nil {
			fatal(err)
		}
		for run := 0; run < *repeat; run++ {
			res, err := eng.QueryTopK(*r, *k)
			if err != nil {
				fatal(err)
			}
			printTopK(res.TopK)
			fmt.Printf("run %d: total %v (labels: %v)\n", run+1, res.Stats.Total(), res.Stats.UsedLabels)
			if *verbose {
				st := res.Stats
				fmt.Printf("  label-input    %v\n  grid-mapping   %v\n  lower-bounding %v\n  upper-bounding %v\n  verification   %v\n",
					st.LabelInput, st.GridMapping, st.LowerBounding, st.UpperBounding, st.Verification)
				fmt.Printf("  candidates %d, verified %d, dist-comps %d, index %.2f MiB\n",
					st.Candidates, st.Verified, st.DistanceComps, float64(st.IndexBytes)/(1<<20))
			}
		}
	case "nl":
		printBaseline(baseline.NL(ds, *r, *k))
	case "nlkd":
		printBaseline(baseline.NLKD(ds, *r, *k))
	case "sg":
		printBaseline(baseline.SG(ds, *r, *k))
	default:
		fatal(fmt.Sprintf("unknown algorithm %q", *algo))
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
