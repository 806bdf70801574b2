// Command perf is the repository's benchmark: four named workloads,
// each measured end to end with tracing off and layer by layer in a
// traced pass. BENCHMARK.json at the repository root is its contract;
// README.md in this directory explains the workloads and how to
// compare two commits.
//
// One workload, one pass (what run.sh and the driver use):
//
//	perf -workload serve_hot_bird2 -seed 7 -seconds 20 -trace 0
//
// Every workload, untraced and traced, three sets:
//
//	perf -trace 1 -repeat 3
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all: every workload, each run in a process of its own")
		seed     = flag.Int64("seed", defaultSeed, "seed of the query streams; set i of -repeat uses seed+i")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase of one run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass (with -workload all: both passes)")
		repeat   = flag.Int("repeat", 1, "with -workload all: number of full sets; >1 prints median, quartiles and spread per metric")
		outDir   = flag.String("out", ".bench_build/perf-out", "directory for dataset files and spans")
		expected = flag.String("write-expected", "", "update this expected/seed1.json from the run's verified answers")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *repeat < 1 || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace == 1, *repeat, *outDir, *expected))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perf: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if !hasMadvFree() {
		fmt.Fprintf(os.Stderr, "perf: GODEBUG=%s is not set (run.sh sets it): latencies will be noisier\n", madvFree)
	}
	rep, err := run(w, runOpts{
		seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir,
		setups: 3, writeExpected: *expected,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printReport(os.Stdout, w, rep, *seed)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// madvFree is the runtime setting every measured process runs under:
// idle heap goes back to the kernel with MADV_FREE, not MADV_DONTNEED.
// Under the default the scavenger's release/refault cycle moves
// per-query time by ±20 % from one second to the next on the runner.
// run.sh exports it; //go:debug does not accept it.
const madvFree = "madvdontneed=0"

func hasMadvFree() bool { return strings.Contains(os.Getenv("GODEBUG"), madvFree) }

// quietEnv is the environment of a child run: the parent's, with
// madvFree added to GODEBUG unless it is there.
func quietEnv() []string {
	if hasMadvFree() {
		return os.Environ()
	}
	debug := madvFree
	if cur := os.Getenv("GODEBUG"); cur != "" {
		debug = cur + "," + madvFree
	}
	return append(os.Environ(), "GODEBUG="+debug)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// commit is the VCS revision the binary was built from, when the
// toolchain stamped one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printReport writes the provenance, every metric by name with its
// unit, and — last — the one-line JSON result.
func printReport(out io.Writer, w *workload, rep *report, seed int64) {
	d := rep.dataset
	fmt.Fprintf(out, "# %s: %s\n", w.name, w.why)
	fmt.Fprintf(out, "# %s GOMAXPROCS=%d nproc=%d commit=%s seed=%d clients=%d (closed loop)\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit(), seed, w.clients)
	fmt.Fprintf(out, "# dataset %s n=%d points=%d sha256=%s\n", d.name, d.n, d.points, d.sha256)
	if rep.golden {
		fmt.Fprintf(out, "# answers also checked against expected/seed1.json\n")
	}
	if rep.samples > 0 {
		note := ""
		if rep.samples < 200 {
			note = " (fewer than 10 samples beyond p95)"
		}
		fmt.Fprintf(out, "# %d latency samples%s; whole phase: p50 %.6g ms, p95 %.6g ms, %.6g correct answers/s\n",
			rep.samples, note, rep.allP50, rep.allP95, rep.allQPS)
	}
	res := result{
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(rep.metrics.defs)),
	}
	for _, def := range rep.metrics.defs {
		v := rep.metrics.vals[def.Name]
		fmt.Fprintf(out, "%-36s %s %s\n", def.Name, strconv.FormatFloat(v, 'g', -1, 64), def.Unit)
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	fmt.Fprintf(out, "%-36s %s share\n", "failed_share", strconv.FormatFloat(float64(rep.failed)/float64(rep.attempted), 'g', -1, 64))
	for _, r := range rep.reasons {
		fmt.Fprintf(out, "FAILED %s\n", r)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a NaN or Inf metric: a bug in the harness
	}
	fmt.Fprintf(out, "%s\n", line)
}

// runAll runs every workload in a child process each (so that
// mem_peak_mb is one workload's own), sets times over, and prints the
// collected metrics; with more than one set, their median, quartiles
// and spread. It returns the exit code.
func runAll(seed int64, seconds float64, traced bool, sets int, outDir, expected string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
		return 1
	}
	passes := []int{0}
	if traced {
		passes = []int{0, 1}
	}
	// values[workload][metric] holds one value per set.
	values := make(map[string]map[string][]float64)
	code := 0
	for set := 0; set < sets; set++ {
		for _, w := range workloads() {
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for _, pass := range passes {
				args := []string{
					"-workload", w.name, "-seed", strconv.FormatInt(seed+int64(set), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(pass), "-out", outDir,
				}
				if expected != "" && pass == 0 {
					args = append(args, "-write-expected", expected)
				}
				var stdout bytes.Buffer
				cmd := exec.Command(self, args...)
				cmd.Env = quietEnv()
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				runErr := cmd.Run()
				if sets == 1 {
					os.Stdout.Write(stdout.Bytes())
				}
				res, err := lastLine(stdout.Bytes())
				if runErr != nil || err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "perf: %s set %d trace %d failed: run: %v, result: %v\n", w.name, set, pass, runErr, err)
					os.Stdout.Write(stdout.Bytes())
					code = 1
					continue
				}
				for name, mv := range res.Metrics {
					values[w.name][name] = append(values[w.name][name], mv.Value)
				}
			}
		}
	}
	if sets > 1 {
		printSpread(os.Stdout, values, sets, traced)
	}
	return code
}

func lastLine(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}

// printSpread prints, per workload and metric, the median, the
// quartiles and the interquartile spread as a share of the median over
// the sets, and flags every end-to-end metric whose spread exceeds the
// bound BENCHMARK.json gives it.
func printSpread(out io.Writer, values map[string]map[string][]float64, sets int, traced bool) {
	lists := [][]metricDef{endToEnd}
	if traced {
		lists = append(lists, perLayer)
	}
	fmt.Fprintf(out, "\n%d sets (seed, seed+1, ...): median [q1, q3] spread=(q3-q1)/median\n", sets)
	for _, w := range workloads() {
		fmt.Fprintf(out, "\n%s\n", w.name)
		for _, defs := range lists {
			for _, def := range defs {
				v := values[w.name][def.Name]
				q1, q2, q3 := quartiles(v)
				spread := ratio(q3-q1, q2)
				flag := ""
				if def.Bound > 0 && def.Name != "setup_s" && spread > def.Bound {
					flag = fmt.Sprintf("  SPREAD EXCEEDS BOUND %.2f", def.Bound)
				}
				fmt.Fprintf(out, "  %-36s %12.6g [%.6g, %.6g] %-8s spread %.4f%s\n", def.Name, q2, q1, q3, def.Unit, spread, flag)
			}
		}
	}
}
