package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"mio/internal/data"
	"mio/internal/server"
)

// query is one (r, k) request.
type query struct {
	R float64
	K int
}

// key is the identity the server's cache sees; rendering r with 17
// significant digits keeps distinct thresholds distinct.
func (q query) key() string {
	return strconv.FormatFloat(q.R, 'g', 17, 64) + "|" + strconv.Itoa(q.K)
}

// workload is one set of inputs the benchmark runs. Sizes are fixed —
// not scaled by core count — so counts made by the program repeat
// exactly from run to run.
type workload struct {
	name string
	why  string
	// dataset builds the stand-in. Its geometry is the same for every
	// seed: across generator seeds per-query time moves by ±10 %, the
	// whole regression bound, so the seed drives the query stream only
	// (the paper likewise fixes its datasets and varies r). n > 0
	// overrides the object count, for the smoke test.
	dataset func(n int) *data.Dataset
	// served workloads go through internal/server over loopback HTTP;
	// the other builds a fresh engine per query in process.
	served bool
	cfg    server.Config
	// labels gives the server's engine pool a shared label store, as
	// cmd/miosrv does by default. Only the hot workload sets it: labels
	// collected at one r are reused at every r with the same ⌈r⌉, and on
	// this commit that reuse returns scores one too low for some r (the
	// Labeling-3 bit depends on r, not only on ⌈r⌉) — 2 of 95 answers on
	// the sharded stream. A benchmark may not run operations that fail,
	// so the streams of distinct r run without a store; the hot
	// workload's 24 keys are fixed, so its answers are the same on every
	// seed and the oracle shows them right.
	labels  bool
	clients int
	// rLo..rHi is the radius range; the warm-up of a served workload
	// sends one query per ⌈r⌉ bucket in it unless hot is set.
	rLo, rHi float64
	// hot, when set, is the closed key set requests are drawn from
	// (Zipf-weighted), and the warm-up is one pass over it.
	hot []query
	// latEvery > 1 keeps the latency of every latEvery-th request only,
	// so that the harness's own sample buffer stays small beside the
	// program's memory at tens of thousands of requests per second.
	latEvery int
	// counted is the length of the stream prefix that every run
	// executes whatever the clock says; the exact per-query counts are
	// taken over it so that they are comparable across runs.
	counted int
}

const goldenFrac = 0.6180339887498949 // frac(φ): the Kronecker sequence with the lowest discrepancy

// stream returns the workload's seeded query sequence: query i is a
// pure function of (seed, i). Engine-bound workloads draw r from a
// Kronecker sequence with a seeded offset instead of i.i.d. uniforms:
// every r is distinct (no cache key repeats) and any prefix covers
// [rLo, rHi] evenly, so p50/p95 do not depend on how many queries the
// clock allowed. k cycles through 1..5 from a seeded offset.
func (w *workload) stream(seed int64) func(i int) query {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	if w.hot != nil {
		return hotStream(w.hot, rng)
	}
	offset, kOffset := rng.Float64(), rng.Intn(5)
	return func(i int) query {
		_, u := math.Modf(offset + float64(i)*goldenFrac)
		return query{R: w.rLo + (w.rHi-w.rLo)*u, K: 1 + (i+kOffset)%5}
	}
}

// hotStream draws keys from a seeded permutation of hot with Zipf
// (s = 1.2) weights. Draw i must not depend on which client asks, so
// the draws are precomputed in blocks under the caller's index.
func hotStream(hot []query, rng *rand.Rand) func(i int) query {
	keys := append([]query(nil), hot...)
	rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	cum := make([]float64, len(keys))
	total := 0.0
	for i := range keys {
		total += 1 / math.Pow(float64(i+1), 1.2)
		cum[i] = total
	}
	// A fixed table of draws, cycled: long enough (64 Ki) that the mix
	// is the Zipf mix, short enough to build in a millisecond.
	table := make([]uint8, 1<<16)
	for i := range table {
		x := rng.Float64() * total
		j := 0
		for cum[j] < x {
			j++
		}
		table[i] = uint8(j)
	}
	return func(i int) query { return keys[table[i%len(table)]] }
}

// warmup lists the queries a served workload sends before timing.
func (w *workload) warmup() []query {
	if w.hot != nil {
		return w.hot
	}
	var qs []query
	for c := math.Floor(w.rLo) + 1; c <= math.Ceil(w.rHi); c++ {
		qs = append(qs, query{R: c - 0.5, K: 1})
	}
	return qs
}

func bird(n int) *data.Dataset {
	c := data.DefaultBird()
	c.N, c.M = 1000, 50
	if n > 0 {
		c.N = n
	}
	ds := data.GenTrajectory(c)
	ds.Name = "Bird"
	return ds
}

func bird2(n int) *data.Dataset {
	c := data.DefaultBird2()
	c.N, c.M = 200, 100
	if n > 0 {
		c.N = n
	}
	ds := data.GenTrajectory(c)
	ds.Name = "Bird-2"
	return ds
}

func neuron2(n int) *data.Dataset {
	c := data.DefaultNeuron2()
	c.N, c.M = 360, 300
	if n > 0 {
		c.N = n
	}
	ds := data.GenNeuron(c)
	ds.Name = "Neuron-2"
	return ds
}

func hotKeys() []query {
	var qs []query
	for _, r := range []float64{4, 4.5, 5, 5.5, 6, 6.5, 7, 8} {
		for k := 1; k <= 3; k++ {
			qs = append(qs, query{R: r, K: k})
		}
	}
	return qs
}

// workloads is the benchmark. Every one is a closed loop: the callers
// are dashboards and jobs that wait for a reply before asking again.
// Every workload has 2 callers, one per core of the runner: with one
// caller and an idle vCPU beside it the median latency of oneshot_bird
// moved by ±10 % from run to run, with both busy by ±2.5 %.
func workloads() []*workload {
	return []*workload{
		{
			name:    "oneshot_bird",
			why:     "paper's online setting: fresh engine per query, every cache cold; grid build and bounding do the work",
			dataset: bird, clients: 2, rLo: 3, rHi: 9, latEvery: 1, counted: 40,
		},
		{
			name:    "serve_solo_neuron2",
			why:     "pooled long-lived engines, distinct r in three ceil(r) buckets, result cache never hits; verification does the work",
			dataset: neuron2, served: true, cfg: server.Config{MaxInFlight: 2},
			clients: 2, rLo: 5, rHi: 8, latEvery: 1, counted: 40,
		},
		{
			name:    "serve_hot_bird2",
			why:     "24 hot keys fit the result cache: HTTP, parse, cache hit and encode are all the work; engine idle",
			dataset: bird2, served: true, cfg: server.Config{MaxInFlight: 2, AllowSwap: true},
			labels: true, clients: 2, rLo: 4, rHi: 8, hot: hotKeys(), latEvery: 8, counted: 2000,
		},
		{
			name:    "serve_sharded_bird2",
			why:     "4 in-process shards, hedging off: scatter, halo re-bounding and floor merge; slowest shard sets latency",
			dataset: bird2, served: true, cfg: server.Config{MaxInFlight: 2, Shards: 4, ShardHedgeAfter: -1},
			clients: 2, rLo: 3, rHi: 9, latEvery: 1, counted: 40,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
