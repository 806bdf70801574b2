// Command miocheck cross-validates every algorithm in the repository
// on a dataset: it computes exact scores with the nested-loop oracle
// and verifies that SG, NL-kd, the R-tree baselines, BIGrid (serial,
// parallel, labeled) and the theoretical index all agree. Use it to
// sanity-check a dataset file before trusting benchmark numbers, or as
// a release smoke test.
//
// Usage:
//
//	miocheck -data birds.bin -r 4
//	miocheck -gen syn -scale 0.05 -r 4,8       # on a generated stand-in
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"

	"mio"
	"mio/internal/baseline"
	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
)

func main() {
	var (
		dataPath = flag.String("data", "", "dataset file to check")
		gen      = flag.String("gen", "", "generate a dataset instead: "+data.Names())
		scale    = flag.Float64("scale", 0.05, "scale for -gen")
		rs       = flag.String("r", "4", "comma-separated thresholds")
		k        = flag.Int("k", 5, "top-k depth to compare")
		theo     = flag.Bool("theoretical", false, "also check the O(n²)-space theoretical index (slow)")
	)
	flag.Parse()

	var ds *mio.Dataset
	var err error
	if *dataPath != "" {
		ds, err = mio.LoadDataset(*dataPath)
	} else {
		ds, err = data.ByName(*gen, *scale, 0, 0, 0)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(ds.Summary())
	if ds.TotalPoints() > 500_000 {
		fatal("dataset too large for the quadratic oracle; sample it first")
	}

	failures := 0
	for _, f := range strings.Split(*rs, ",") {
		var r float64
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%g", &r); err != nil || r <= 0 {
			fatal(fmt.Sprintf("bad -r entry %q", f))
		}
		failures += checkOne(ds, r, *k, *theo)
	}
	if failures > 0 {
		fatal(fmt.Sprintf("%d check(s) FAILED", failures))
	}
	fmt.Println("all algorithms agree")
}

// checkOne validates one threshold and returns the number of failed
// comparisons.
func checkOne(ds *mio.Dataset, r float64, k int, theo bool) int {
	fmt.Printf("r=%g:\n", r)
	oracle := baseline.NLScores(ds, r)
	want := topScores(oracle, k)

	failures := 0
	report := func(name string, got []int) {
		if reflect.DeepEqual(got, want) {
			fmt.Printf("  %-28s ok\n", name)
			return
		}
		fmt.Printf("  %-28s MISMATCH: %v want %v\n", name, got, want)
		failures++
	}

	report("SG", baselineTop(baseline.SG(ds, r, k)))
	report("NL-kd", baselineTop(baseline.NLKD(ds, r, k)))
	report("RT-object", baselineTop(baseline.RTObject(ds, r, k)))
	report("RT-point", baselineTop(baseline.RTPoint(ds, r, k)))

	engines := []struct {
		name string
		opts core.Options
	}{
		{"BIGrid", core.Options{}},
		{"BIGrid parallel", core.Options{Workers: 4}},
		{"BIGrid parallel hash-p/greedy-d", core.Options{Workers: 4, LB: core.LBHashP, UB: core.UBGreedyD}},
	}
	for _, e := range engines {
		eng, err := core.NewEngine(ds, e.opts)
		if err != nil {
			fatal(err)
		}
		res, err := eng.RunTopK(r, k)
		if err != nil {
			fatal(err)
		}
		report(e.name, engineTop(res))
	}

	// Labeled: collect then replay.
	store := labelstore.NewStore()
	leng, err := core.NewEngine(ds, core.Options{Labels: store})
	if err != nil {
		fatal(err)
	}
	if _, err := leng.RunTopK(r, k); err != nil {
		fatal(err)
	}
	res, err := leng.RunTopK(r, k)
	if err != nil {
		fatal(err)
	}
	if !res.Stats.UsedLabels {
		fmt.Printf("  %-28s MISMATCH: labels not reused\n", "BIGrid-label")
		failures++
	} else {
		report("BIGrid-label", engineTop(res))
	}

	if theo {
		th := baseline.BuildTheoretical(ds, 2)
		report("Theoretical", baselineTop(th.Query(r, k)))
	}
	return failures
}

func topScores(scores []int, k int) []int {
	return baselineTop(baseline.TopKFromScores(scores, k))
}

func baselineTop(s []baseline.Scored) []int {
	out := make([]int, len(s))
	for i, e := range s {
		out[i] = e.Score
	}
	return out
}

func engineTop(res *core.Result) []int {
	out := make([]int, len(res.TopK))
	for i, e := range res.TopK {
		out[i] = e.Score
	}
	return out
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "miocheck:", v)
	os.Exit(1)
}
