package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"mio"
)

// runOpts is one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64 // length of the timed phase
	trace   bool
	outDir  string // dataset file and spans are written here
	// setups is how many times the set-up is repeated; setup_s is the
	// median, the last instance serves the timed phase.
	setups int
	// smokeN > 0 shrinks every dataset to smokeN objects and the counted
	// prefix (and the fixed-length probes) to smokeQueries queries.
	smokeN       int
	smokeQueries int
	// writeExpected, when set, is the expected/seed1.json to update.
	writeExpected string
}

// datasetInfo identifies the input of a run.
type datasetInfo struct {
	name   string
	n      int
	points int
	sha256 string
}

// report is the outcome of one run.
type report struct {
	dataset   datasetInfo
	attempted int
	failed    int
	reasons   []string
	samples   int  // latency samples behind p50/p95
	golden    bool // expected/seed1.json applied to this run
	// Plain whole-phase figures, printed beside the reported ones.
	allP50, allP95, allQPS float64
	metrics                *metricSet
	// streamHead is the first queries of the stream, for the test that
	// the seed and nothing else decides it.
	streamHead []query
}

// run executes one workload once: set-up (repeated), the timed phase,
// the fixed-length probes of a traced run, the correctness check.
func run(w *workload, o runOpts) (*report, error) {
	counted := w.counted
	if o.smokeN > 0 {
		counted = o.smokeQueries
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	gen := w.dataset(o.smokeN)
	file := filepath.Join(o.outDir, w.name+".bin")
	if err := mio.SaveDataset(file, gen); err != nil {
		return nil, fmt.Errorf("writing %s: %w", file, err)
	}
	hash, fileMB, err := fileSHA256(file)
	if err != nil {
		return nil, err
	}
	rep := &report{dataset: datasetInfo{name: gen.Name, n: gen.N(), points: gen.TotalPoints(), sha256: hash}}
	stream := w.stream(o.seed)
	for i := 0; i < 8; i++ {
		rep.streamHead = append(rep.streamHead, stream(i))
	}

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var e *env
	var setupS, loadMs []float64
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.close()
		}
		var st setupTimes
		if e, st, err = setup(w, w.cfg, file, rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, st.totalS)
		loadMs = append(loadMs, st.loadMs)
	}
	defer e.close()

	// The repeated set-ups leave garbage and idle spans behind; hand
	// them back so that mem_peak_mb is the timed phase's own.
	debug.FreeOSMemory()

	var before, after serverCounters
	if o.trace && w.served {
		if before, err = readCounters(e); err != nil {
			return nil, err
		}
	}
	traced := untraced
	if o.trace {
		// Of the queries whose latency is kept, every other one carries
		// spans: both halves are themselves evenly spread over r and k,
		// so their mean latencies differ by the cost of tracing and
		// little else.
		traced = func(i int) bool { return i%w.latEvery == 0 && (i/w.latEvery)%2 == 1 }
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sampler := startMemSampler()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	p := runPhase(e, w.clients, stream, deadline, counted, traced)
	peakMB := sampler.peakMB()
	runtime.ReadMemStats(&ms1)
	if o.trace && w.served {
		if after, err = readCounters(e); err != nil {
			return nil, err
		}
	}

	rep.attempted, rep.failed, rep.reasons = p.sent, p.failed, p.reasons
	answers := p.answers
	if o.trace {
		rep.metrics = newMetricSet(perLayer)
		lm := &layerInputs{
			w: w, e: e, p: p, rec: rec, file: file, counted: counted,
			before: before, after: after, ms0: &ms0, ms1: &ms1,
		}
		rep.metrics.set("data.load_ms", median(loadMs))
		rep.metrics.set("data.file_mb", fileMB)
		extra, err := lm.compute(rep.metrics, stream)
		if err != nil {
			return nil, err
		}
		rep.attempted += extra.sent
		rep.failed += extra.failed
		rep.reasons = append(rep.reasons, extra.reasons...)
		answers = append(answers, extra.answers...)
		rep.metrics.fillZero()
		if err := rec.write(filepath.Join(o.outDir, "spans-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	}

	golden, err := goldenFor(w, o.seed, hash)
	if err != nil {
		return nil, err
	}
	rep.golden = golden != nil
	wrong, reasons := verify(e.ds, w.rHi, answers, golden)
	rep.failed += wrong
	rep.reasons = append(rep.reasons, reasons...)
	if o.writeExpected != "" && rep.failed == 0 {
		if err := writeExpected(o.writeExpected, w, hash, p.answers); err != nil {
			return nil, err
		}
	}

	if !o.trace {
		rep.samples = len(p.lats)
		rep.metrics = newMetricSet(endToEnd)
		quiet := quietQuartiles(p.lats, w.latEvery)
		rep.allP50, rep.allP95, rep.allQPS = quiet.allP50, quiet.allP95, float64(p.sent-rep.failed)/p.wallS
		rep.metrics.set("query_ms_p50", quiet.p50)
		rep.metrics.set("query_ms_p95", quiet.p95)
		rep.metrics.set("queries_per_s", quiet.qps)
		rep.metrics.set("mem_peak_mb", peakMB)
		rep.metrics.set("setup_s", median(setupS))
	}
	return rep, nil
}

// windowS is the length of the windows the end-to-end latency and
// throughput metrics are taken over.
const windowS = 2

type quietStats struct {
	p50, p95, qps  float64 // the reported metrics
	allP50, allP95 float64 // plain quantiles of every sample, for the log
}

// quietQuartiles turns a phase's latencies into the three reported
// numbers. The runner is a small VM whose co-tenants slow memory-bound
// code by 10-40 % for seconds at a time, and a plain median over the
// whole phase inherits every such burst. So the phase is cut into 2 s
// windows by completion time; each window yields its own p50, its own
// p95 and its own throughput (completions after the window's first ÷
// the time they took — continuous, where a count per 2 s would step by
// 4 %; every is how many requests each kept latency stands for); and
// the reported value is the quiet quartile across windows:
// the lower quartile of the latencies, the upper quartile of the
// throughput. A change to the program moves every window; a burst
// moves a few.
func quietQuartiles(lats []lat, every int) quietStats {
	all := make([]float64, len(lats))
	first := float32(math.MaxFloat32)
	for i, l := range lats {
		all[i] = l.ms
		if l.atS < first {
			first = l.atS
		}
	}
	all = sortedCopy(all)
	st := quietStats{allP50: quantile(all, 0.50), allP95: quantile(all, 0.95)}
	type window struct {
		ms          []float64
		first, last float32 // completion times
	}
	windows := make(map[int]*window)
	for _, l := range lats {
		k := int((l.atS - first) / windowS)
		w := windows[k]
		if w == nil {
			w = &window{first: l.atS, last: l.atS}
			windows[k] = w
		}
		w.ms = append(w.ms, l.ms)
		w.first, w.last = min(w.first, l.atS), max(w.last, l.atS)
	}
	var p50s, p95s, qpss []float64
	for _, w := range windows {
		// The trailing window holds the few queries that were in flight
		// at the deadline; too few to have a p95.
		if len(w.ms) < 10 && len(windows) > 1 {
			continue
		}
		sorted := sortedCopy(w.ms)
		p50s = append(p50s, quantile(sorted, 0.50))
		p95s = append(p95s, quantile(sorted, 0.95))
		qpss = append(qpss, ratio(float64((len(sorted)-1)*every), float64(w.last-w.first)))
	}
	st.p50 = quantile(sortedCopy(p50s), 0.25)
	st.p95 = quantile(sortedCopy(p95s), 0.25)
	st.qps = quantile(sortedCopy(qpss), 0.75)
	return st
}
