// Command mioload drives an MIO query server (cmd/miosrv) with a
// Zipf-skewed repeated-r workload and reports client-side throughput
// and latency percentiles next to the server-side serving metrics
// (engine runs, coalesced requests, cache hits) observed over the run.
//
// Usage:
//
//	mioload -url http://localhost:8080 -n 2000 -c 16 -rs 4,5,6 -skew 1.3
//	mioload -compare -scale 0.25       # self-contained A/B benchmark
//	mioload -compare -shards 4         # sharded: healthy vs fault-injected
//	mioload -compare -dataset commute  # A/B over an adversarial dataset
//
// -compare needs no running server: it generates a Syn-style dataset,
// starts two in-process servers — one with the full serving stack,
// one with caching and coalescing disabled — and runs the identical
// workload against both, demonstrating what the serving layer buys on
// a repeated-threshold workload. With -shards it instead compares a
// healthy sharded cluster against the same cluster under injected
// shard faults, surfacing the degraded-answer rate and the
// retry/hedge work the coordinator spent staying available.
//
// Against a sharded server the per-run report always includes the
// degraded-answer rate and retry/hedge/down counts observed over the
// run (the shards section of /metrics).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/fault"
	"mio/internal/server"
	"mio/internal/server/loadgen"
)

func main() {
	var (
		url     = flag.String("url", "http://localhost:8080", "target server root")
		n       = flag.Int("n", 1000, "total requests")
		c       = flag.Int("c", 8, "concurrent client workers")
		rsList  = flag.String("rs", "4,5,6", "comma-separated threshold set")
		skew    = flag.Float64("skew", 1.3, "Zipf skew over the threshold set (≤1 = uniform)")
		k       = flag.Int("k", 1, "top-k per query")
		seed    = flag.Int64("seed", 1, "workload RNG seed")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		retries = flag.Int("retries", 3, "max attempts per request; 429/503 responses are retried with backoff (1 disables)")
		compare = flag.Bool("compare", false, "run the self-contained A/B benchmark instead")
		scale   = flag.Float64("scale", 0.25, "dataset size multiplier for -compare")
		workers = flag.Int("workers", 1, "engine workers per query for -compare")
		pool    = flag.Int("inflight", 2, "engine pool size for -compare")
		burst   = flag.Bool("burst", false, "closed-loop waves: all -c workers fire simultaneously and wait for the slowest")
		kspread = flag.Int("kspread", 0, "cycle each worker's k over 1..kspread instead of fixed -k (>1 enables)")
		shards  = flag.Int("shards", 0, "with -compare: A/B a healthy sharded cluster vs the same cluster under injected shard faults (>0 enables)")
		dataset = flag.String("dataset", "syn", "dataset generated for -compare: "+data.Names())
	)
	flag.Parse()

	rs, err := parseRS(*rsList)
	if err != nil {
		fatal(err)
	}
	cfg := loadgen.Config{
		BaseURL:     *url,
		Concurrency: *c,
		Requests:    *n,
		RValues:     rs,
		Skew:        *skew,
		K:           *k,
		Seed:        *seed,
		Timeout:     *timeout,
		MaxAttempts: *retries,
		Burst:       *burst,
		KSpread:     *kspread,
	}

	if *shards > 0 && !*compare {
		fatal("-shards requires -compare (point -url at a sharded miosrv for live runs)")
	}
	if *compare {
		ds, err := data.ByName(*dataset, *scale, 0, 0, 0)
		if err != nil {
			fatal(err)
		}
		switch {
		case *shards > 0:
			runCompareShards(cfg, ds, *workers, *pool, *shards)
		default:
			runCompare(cfg, ds, *workers, *pool)
		}
		return
	}
	fmt.Printf("mioload: %d requests, %d workers, rs=%v skew=%g → %s\n\n",
		cfg.Requests, cfg.Concurrency, rs, *skew, cfg.BaseURL)
	rep, err := loadgen.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep)
}

// runCompare benchmarks the full serving stack against a stripped one
// (no cache, no coalescing) on the same generated dataset and
// workload. Both keep the label store, so the delta isolates what the
// serving layer itself contributes.
func runCompare(cfg loadgen.Config, ds *data.Dataset, workers, pool int) {
	fmt.Printf("mioload -compare: %q dataset, %d objects, %d points; %d requests, %d workers, rs=%v skew=%g\n",
		ds.Name, ds.N(), ds.TotalPoints(), cfg.Requests, cfg.Concurrency, cfg.RValues, cfg.Skew)

	run := func(label string, srvCfg server.Config) *loadgen.Report {
		s, err := server.New(ds, core.Options{Workers: workers, Labels: labelstore.NewStore()}, srvCfg)
		if err != nil {
			fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		runCfg := cfg
		runCfg.BaseURL = ts.URL
		rep, err := loadgen.Run(runCfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s\n%s", label, rep)
		return rep
	}

	base := server.Config{MaxInFlight: pool, AdmissionWait: cfg.Timeout}
	full := run("with cache + coalescing:", base)
	stripped := base
	stripped.DisableCache = true
	stripped.DisableCoalesce = true
	plain := run("without (every request runs the engine):", stripped)

	fmt.Printf("\nsummary:\n")
	fmt.Printf("  engine runs   %d vs %d\n", full.EngineRuns, plain.EngineRuns)
	fmt.Printf("  coalesced     %d, cache hits %d (full stack)\n", full.Coalesced, full.CacheHits)
	if plain.QPS > 0 {
		fmt.Printf("  throughput    %.0f vs %.0f q/s (%.1fx)\n", full.QPS, plain.QPS, full.QPS/plain.QPS)
	}
	if full.Coalesced == 0 || full.CacheHits == 0 || full.QPS <= plain.QPS {
		fmt.Println("  NOTE: expected coalesced > 0, cache hits > 0 and a throughput win; " +
			"try more requests (-n) or a smaller dataset (-scale)")
		os.Exit(1)
	}
}

// runCompareShards benchmarks a healthy sharded cluster against the
// identical cluster with faults injected into the per-shard bound
// attempts (errors force retries and shard-down degradation, latency
// triggers the hedged scatter). Cache and coalescing are off on both
// sides so every request exercises the scatter path; the delta
// surfaces what fault tolerance costs (retries, hedges) and what it
// preserves (200s with certified intervals instead of 5xx).
func runCompareShards(cfg loadgen.Config, ds *data.Dataset, workers, pool, shards int) {
	fmt.Printf("mioload -compare -shards: %q dataset, %d objects, %d points; %d requests, %d workers, rs=%v skew=%g, %d shards\n",
		ds.Name, ds.N(), ds.TotalPoints(), cfg.Requests, cfg.Concurrency, cfg.RValues, cfg.Skew, shards)

	run := func(label string, srvCfg server.Config) *loadgen.Report {
		s, err := server.New(ds, core.Options{Workers: workers, Labels: labelstore.NewStore()}, srvCfg)
		if err != nil {
			fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		runCfg := cfg
		runCfg.BaseURL = ts.URL
		rep, err := loadgen.Run(runCfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s\n%s", label, rep)
		return rep
	}

	base := server.Config{
		MaxInFlight:     pool,
		AdmissionWait:   cfg.Timeout,
		DisableCache:    true,
		DisableCoalesce: true,
		Shards:          shards,
		ShardRetries:    2,
		// A short breaker cooldown keeps the run moving: tripped shards
		// (expected under 20% attempt errors) re-probe quickly instead
		// of sitting open for the 5s production default.
		ShardBreakCooldown: time.Second,
	}
	healthy := run("healthy cluster:", base)

	// Errors make individual bound attempts fail: most are absorbed by
	// retries, a run of bad luck exhausts a shard's budget (down shard
	// → degraded answer), and consecutive failures trip its breaker —
	// exercising every rung of the degradation ladder. Latency makes
	// attempts straggle past the default hedge trigger (timeout/4 =
	// 500ms) without reaching the attempt deadline, so the hedged
	// second attempt is what keeps those queries fast.
	reg, err := fault.Parse(fmt.Sprintf(
		"seed=%d;shard.run=error:0.2;shard.run=latency:0.2:600ms", cfg.Seed))
	if err != nil {
		fatal(err)
	}
	faulted := base
	faulted.Faults = reg
	chaos := run("same cluster, faults injected into shard attempts:", faulted)

	fmt.Printf("\nsummary:\n")
	okHealthy, okChaos := healthy.Status[http.StatusOK], chaos.Status[http.StatusOK]
	rate := 0.0
	if okChaos > 0 {
		rate = 100 * float64(chaos.ShardDegraded) / float64(okChaos)
	}
	fmt.Printf("  degraded      %d vs %d of %d 200s (%.1f%%) — certified intervals, not 5xx\n",
		healthy.ShardDegraded, chaos.ShardDegraded, okChaos, rate)
	fmt.Printf("  shard faults  %d vs %d retries, %d vs %d hedges, %d vs %d down/late outcomes\n",
		healthy.ShardRetries, chaos.ShardRetries,
		healthy.ShardHedges, chaos.ShardHedges,
		healthy.ShardDowns, chaos.ShardDowns)
	if healthy.ShardStale+chaos.ShardStale+healthy.ShardBad+chaos.ShardBad > 0 {
		fmt.Printf("  shard reject  %d vs %d stale-generation, %d vs %d invalid responses\n",
			healthy.ShardStale, chaos.ShardStale, healthy.ShardBad, chaos.ShardBad)
	}
	if !healthy.Sharded || !chaos.Sharded {
		fmt.Println("  NOTE: server did not report a shards metrics section; is Config.Shards wired?")
		os.Exit(1)
	}
	if healthy.ShardDegraded > 0 || okHealthy == 0 {
		fmt.Println("  NOTE: expected zero degraded answers on the healthy cluster")
		os.Exit(1)
	}
	if chaos.ShardRetries+chaos.ShardHedges == 0 || okChaos == 0 {
		fmt.Println("  NOTE: expected injected faults to cost retries or hedges and still serve 200s; " +
			"try more requests (-n) or a different -seed")
		os.Exit(1)
	}
}

func parseRS(list string) ([]float64, error) {
	parts := strings.Split(list, ",")
	rs := make([]float64, 0, len(parts))
	for _, p := range parts {
		r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("-rs entry %q is not a positive number", p)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "mioload:", v)
	os.Exit(1)
}
