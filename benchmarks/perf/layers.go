package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"mio"
	"mio/internal/bitmap"
	"mio/internal/geom"
	"mio/internal/server"
)

// serverCounters is the part of the /metrics JSON the harness reads;
// per-layer server and shard metrics are deltas of two snapshots.
type serverCounters struct {
	EngineRuns uint64 `json:"engine_runs_total"`
	Coalesced  uint64 `json:"coalesced_total"`
	Rejected   uint64 `json:"admission_rejected_total"`
	Cache      struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Shards *struct {
		Scatter wireHistogram `json:"scatter_latency"`
		Merge   wireHistogram `json:"merge_latency"`
	} `json:"shards"`
}

type wireHistogram struct {
	Count uint64  `json:"count"`
	SumMs float64 `json:"sum_ms"`
}

func readCounters(e *env) (serverCounters, error) {
	var c serverCounters
	resp, err := e.http.Get(e.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return c, fmt.Errorf("/metrics: %w", err)
	}
	return c, nil
}

// layerInputs is everything the per-layer metrics of a traced run are
// computed from.
type layerInputs struct {
	w             *workload
	e             *env
	p             *phase
	rec           *recorder
	file          string
	counted       int
	before, after serverCounters
	ms0, ms1      *runtime.MemStats
}

// compute fills m with the per-layer metrics and returns the requests
// its fixed-length probes sent, for the correctness check.
func (in *layerInputs) compute(m *metricSet, stream func(int) query) (*phase, error) {
	extra := &phase{}
	w, p := in.w, in.p
	queries := float64(p.sent)

	// core, grid, label store: per-query means over the queries an
	// engine ran, from the PhaseStats each returned. Counts are taken
	// over the counted prefix only, so that they repeat exactly.
	var ran, prefix []detail
	for _, d := range p.details {
		if d.cached {
			continue
		}
		ran = append(ran, d)
		if d.idx < in.counted {
			prefix = append(prefix, d)
		}
	}
	avg := func(ds []detail, f func(detail) float64) float64 {
		sum := 0.0
		for _, d := range ds {
			sum += f(d)
		}
		return ratio(sum, float64(len(ds)))
	}
	m.set("core.label_input_ms", avg(ran, func(d detail) float64 { return ms(d.stats.LabelInput) }))
	m.set("core.grid_mapping_ms", avg(ran, func(d detail) float64 { return ms(d.stats.GridMapping) }))
	m.set("core.lower_bounding_ms", avg(ran, func(d detail) float64 { return ms(d.stats.LowerBounding) }))
	m.set("core.upper_bounding_ms", avg(ran, func(d detail) float64 { return ms(d.stats.UpperBounding) }))
	m.set("core.verification_ms", avg(ran, func(d detail) float64 { return ms(d.stats.Verification) }))
	m.set("core.phase_total_ms", avg(ran, func(d detail) float64 { return ms(d.stats.Total()) }))
	cand := avg(prefix, func(d detail) float64 { return float64(d.stats.Candidates) })
	verified := avg(prefix, func(d detail) float64 { return float64(d.stats.Verified) })
	m.set("core.candidates_per_query", cand)
	m.set("core.verified_per_query", verified)
	m.set("core.dist_comps_per_query", avg(prefix, func(d detail) float64 { return float64(d.stats.DistanceComps) }))
	m.set("core.adj_computed_per_query", avg(prefix, func(d detail) float64 { return float64(d.stats.AdjComputed) }))
	if len(prefix) > 0 {
		m.set("core.pruned_share", 1-cand/float64(in.e.ds.N()))
	}
	m.set("core.verified_share", ratio(verified, cand))
	m.set("grid.small_cells", avg(prefix, func(d detail) float64 { return float64(d.stats.SmallCells) }))
	m.set("grid.large_cells", avg(prefix, func(d detail) float64 { return float64(d.stats.LargeCells) }))
	m.set("grid.index_mb", avg(prefix, func(d detail) float64 { return float64(d.stats.IndexBytes) / 1e6 }))

	m.set("geom.within2_ns_per_point", probeWithin2())
	m.set("bitmap.or_compressed_ns", probeOrCompressed())

	m.set("runtime.alloc_mb_per_query", ratio(float64(in.ms1.TotalAlloc-in.ms0.TotalAlloc)/1e6, queries))
	m.set("runtime.allocs_per_query", ratio(float64(in.ms1.Mallocs-in.ms0.Mallocs), queries))
	m.set("runtime.gc_cycles", float64(in.ms1.NumGC-in.ms0.NumGC))
	m.set("runtime.gc_pause_ms_total", float64(in.ms1.PauseTotalNs-in.ms0.PauseTotalNs)/1e6)

	var tracedMs, untracedMs []float64
	for _, l := range p.lats {
		if l.traced {
			tracedMs = append(tracedMs, l.ms)
		} else {
			untracedMs = append(untracedMs, l.ms)
		}
	}
	m.set("trace_overhead_share", ratio(mean(tracedMs)-mean(untracedMs), mean(untracedMs)))

	if !w.served {
		m.set("core.engine_build_ms", avg(ran, func(d detail) float64 { return d.buildMs }))
		m.set("core.outside_phases_ms", avg(ran, func(d detail) float64 { return d.callMs - ms(d.stats.Total()) }))
		speedup, err := in.parallelSpeedup(stream, extra)
		if err != nil {
			return nil, err
		}
		m.set("parallel.speedup", speedup)
		return extra, nil
	}

	// Served workloads. The engine is built inside server.New, out of
	// the harness's reach, so its cost is probed on the side.
	buildMs, err := probeEngineBuild(in.e)
	if err != nil {
		return nil, err
	}
	m.set("core.engine_build_ms", buildMs)

	engineMs := make(map[int]float64, len(ran))
	for _, d := range ran {
		engineMs[d.idx] = ms(d.stats.Total())
	}
	handler := in.rec.durations("server.handler")
	var handlerMs, transportMs, overheadMs, hitMs, missMs []float64
	for _, l := range p.lats {
		if l.cached {
			hitMs = append(hitMs, l.ms)
		} else {
			missMs = append(missMs, l.ms)
		}
		h, ok := handler[int64(l.idx)]
		if !l.traced || !ok {
			continue
		}
		handlerMs = append(handlerMs, h)
		transportMs = append(transportMs, l.ms-h)
		// A hit runs no engine: engineMs has no entry and reads 0.
		overheadMs = append(overheadMs, h-engineMs[int(l.idx)])
	}
	m.set("server.handler_ms_mean", mean(handlerMs))
	m.set("server.transport_ms_mean", mean(transportMs))
	m.set("server.overhead_ms_mean", mean(overheadMs))
	hitMs, missMs = sortedCopy(hitMs), sortedCopy(missMs)
	m.set("server.hit_ms_p50", quantile(hitMs, 0.50))
	m.set("server.hit_ms_p99", quantile(hitMs, 0.99))
	m.set("server.miss_ms_p50", quantile(missMs, 0.50))

	b, a := in.before, in.after
	hits, misses := float64(a.Cache.Hits-b.Cache.Hits), float64(a.Cache.Misses-b.Cache.Misses)
	m.set("server.cache_hit_share", ratio(hits, hits+misses))
	m.set("server.cache_evictions", float64(a.Cache.Evictions-b.Cache.Evictions))
	m.set("server.engine_runs", ratio(float64(a.EngineRuns-b.EngineRuns), queries))
	m.set("server.coalesced", float64(a.Coalesced-b.Coalesced))
	m.set("server.rejected_429", float64(a.Rejected-b.Rejected))

	if w.hot != nil {
		if err := in.swapProbe(m, extra); err != nil {
			return nil, err
		}
	}
	if w.cfg.Shards > 0 {
		if a.Shards == nil || b.Shards == nil {
			return nil, fmt.Errorf("/metrics has no shards block on a sharded server")
		}
		m.set("shard.scatter_ms_mean", ratio(a.Shards.Scatter.SumMs-b.Shards.Scatter.SumMs, float64(a.Shards.Scatter.Count-b.Shards.Scatter.Count)))
		m.set("shard.merge_ms_mean", ratio(a.Shards.Merge.SumMs-b.Shards.Merge.SumMs, float64(a.Shards.Merge.Count-b.Shards.Merge.Count)))
		m.set("shard.pruned_per_query", avg(prefix, func(d detail) float64 { return float64(d.pruned) }))
		sum := func(f func(detail) int) float64 {
			n := 0
			for _, d := range ran {
				n += f(d)
			}
			return float64(n)
		}
		m.set("shard.retries", sum(func(d detail) int { return d.retries }))
		m.set("shard.hedges", sum(func(d detail) int { return d.hedges }))
		m.set("shard.failed_shards", sum(func(d detail) int { return d.downs }))
		if err := in.soloReplay(m, stream, prefix, extra); err != nil {
			return nil, err
		}
	}
	return extra, nil
}

func (p *phase) absorb(q *phase) {
	p.sent += q.sent
	p.failed += q.failed
	p.reasons = append(p.reasons, q.reasons...)
	p.answers = append(p.answers, q.answers...)
}

// parallelSpeedup replays the first queries of the stream one-shot at
// WithWorkers(1) and at WithWorkers(GOMAXPROCS) and returns the ratio
// of the two walls. No workload runs with Workers > 1 (the CLI and the
// server default to the single-core pipeline); this only records what
// §IV's parallel phases are worth on this machine.
func (in *layerInputs) parallelSpeedup(stream func(int) query, extra *phase) (float64, error) {
	n := 20
	if n > in.counted {
		n = in.counted
	}
	wall := func(workers int) (float64, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			q := stream(i)
			eng, err := mio.NewEngine(in.e.ds, mio.WithWorkers(workers))
			if err != nil {
				return 0, err
			}
			res, err := eng.QueryTopK(q.R, q.K)
			if err != nil {
				return 0, err
			}
			extra.sent++
			extra.answers = append(extra.answers, &answer{idx: i, q: q, topK: res.TopK, degraded: res.Degraded, count: 1})
		}
		return time.Since(start).Seconds(), nil
	}
	one, err := wall(1)
	if err != nil {
		return 0, err
	}
	all, err := wall(runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	return ratio(one, all), nil
}

// probeEngineBuild times mio.NewEngine with a label store, the
// construction server.New repeats per pool slot.
func probeEngineBuild(e *env) (float64, error) {
	const reps = 5
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := mio.NewEngine(e.ds, mio.WithLabels()); err != nil {
			return 0, err
		}
	}
	return msSince(start) / reps, nil
}

// swapProbe is the write beside the reads: replace the dataset with
// the same file, then time the next query and how long the 24 hot keys
// take to be cached again. An epoch bump empties the result cache and
// the label store, so this is where their refill cost shows.
func (in *layerInputs) swapProbe(m *metricSet, extra *phase) error {
	body, err := json.Marshal(map[string]string{"path": in.file})
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := in.e.http.Post(in.e.base+"/v1/dataset", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/dataset: status %d", resp.StatusCode)
	}
	m.set("server.swap_ms", msSince(start))
	c := newClient(in.e)
	swapped := time.Now()
	for i, q := range in.w.hot {
		c.do(i, q, false)
		if i == 0 {
			m.set("server.first_query_after_swap_ms", msSince(swapped))
		}
	}
	m.set("server.rewarm_s", time.Since(swapped).Seconds())
	// The refill is the one place this workload runs engines, so it is
	// where the label store's work shows: the first query of each ⌈r⌉
	// collects labels, the others read them.
	used, labelMB := 0.0, 0.0
	for _, d := range c.details {
		if d.stats.UsedLabels {
			used++
		}
		labelMB += float64(d.stats.LabelBytes) / 1e6
	}
	m.set("core.labelstore.used_share", ratio(used, float64(len(c.details))))
	m.set("core.labelstore.label_mb", ratio(labelMB, float64(len(c.details))))
	extra.absorb(&phase{sent: c.sent, failed: c.failed, reasons: c.reasons, answers: c.answers})
	return nil
}

// soloReplay sends the counted prefix to a second server over the same
// file with Shards = 0 and compares: how much more distance work and
// how much more time the sharded path spends on identical queries.
func (in *layerInputs) soloReplay(m *metricSet, stream func(int) query, sharded []detail, extra *phase) error {
	cfg := server.Config{MaxInFlight: in.w.cfg.MaxInFlight}
	solo, _, err := setup(in.w, cfg, in.file, nil)
	if err != nil {
		return fmt.Errorf("solo replay: %w", err)
	}
	defer solo.close()
	p := runPhase(solo, in.w.clients, stream, time.Now(), in.counted, untraced)
	extra.absorb(p)
	var shardedMs, shardedComps, soloMs, soloComps float64
	for _, d := range sharded {
		shardedMs += d.latMs
		shardedComps += float64(d.stats.DistanceComps)
	}
	for _, d := range p.details {
		soloMs += d.latMs
		soloComps += float64(d.stats.DistanceComps)
	}
	m.set("shard.dist_comps_ratio", ratio(shardedComps, soloComps))
	m.set("shard.slowdown_vs_solo", ratio(shardedMs/float64(len(sharded)), soloMs/float64(len(p.details))))
	return nil
}

// probeWithin2 times the two verification kernels on a fixed
// 1 024-point block in which the query point has no neighbour — the
// common case in verification, where most probed postings miss.
func probeWithin2() float64 {
	const n, reps, batches = 1024, 2000, 5
	rng := rand.New(rand.NewSource(1))
	xs, ys, zs := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i], zs[i] = 10+rng.Float64()*90, 10+rng.Float64()*90, 10+rng.Float64()*90
	}
	per := make([]float64, batches)
	sink := 0
	for b := range per {
		start := time.Now()
		for i := 0; i < reps; i++ {
			sink += geom.CountWithin2(0, 0, 0, xs, ys, zs, 36)
			sink += geom.FirstWithin2(0, 0, 0, xs, ys, zs, 36)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / (2 * reps * n)
	}
	if sink != -reps*batches {
		panic("probeWithin2: the block is supposed to hold no point within r")
	}
	return median(per)
}

// probeOrCompressed times Scratch.OrCompressed on a fixed set of 64
// sparse compressed bitsets over 8 192 objects — the accumulation the
// bounding phases run per cell.
func probeOrCompressed() float64 {
	const n, sets, reps, batches = 8192, 64, 200, 5
	rng := rand.New(rand.NewSource(1))
	cs := make([]*bitmap.Compressed, sets)
	for i := range cs {
		bits := make([]int, 48)
		for j := range bits {
			bits[j] = rng.Intn(n)
		}
		cs[i] = bitmap.FromBits(n, bits...)
	}
	acc := bitmap.NewScratch(n)
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < reps; i++ {
			acc.Reset()
			for _, c := range cs {
				acc.OrCompressed(c)
			}
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / (reps * sets)
	}
	if acc.Cardinality() == 0 {
		panic("probeOrCompressed: nothing accumulated")
	}
	return median(per)
}
