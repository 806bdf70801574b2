// Command miobench regenerates the paper's tables and figures on the
// stand-in datasets (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results).
//
// Usage:
//
//	miobench                       # everything, default scale
//	miobench -experiment fig5,fig9 -scale 0.5
//	miobench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mio/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "comma-separated experiment ids, or 'all'")
		scale      = flag.Float64("scale", 1.0, "dataset scale factor")
		rs         = flag.String("r", "4,6,8,10", "comma-separated distance thresholds")
		workers    = flag.String("workers", "", "comma-separated core counts for the parallel experiments (default: 1,2,4,... up to GOMAXPROCS)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		csvOut     = flag.Bool("csv", false, "emit CSV blocks instead of aligned tables")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation data
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}()
	}

	s := bench.NewSuite(os.Stdout)
	s.Scale = *scale
	s.CSV = *csvOut
	if *workers != "" {
		s.Workers = s.Workers[:0]
		for _, f := range strings.Split(*workers, ",") {
			var v int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err != nil || v < 1 {
				fatal(fmt.Sprintf("bad -workers entry %q", f))
			}
			s.Workers = append(s.Workers, v)
		}
	}
	if *rs != "" {
		s.Rs = s.Rs[:0]
		for _, f := range strings.Split(*rs, ",") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%g", &v); err != nil || v <= 0 {
				fatal(fmt.Sprintf("bad -r entry %q", f))
			}
			s.Rs = append(s.Rs, v)
		}
	}

	if *list {
		for _, e := range s.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Desc)
		}
		return
	}

	ids := strings.Split(*experiment, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	if err := s.Run(ids...); err != nil {
		fatal(err)
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "miobench:", v)
	os.Exit(1)
}
