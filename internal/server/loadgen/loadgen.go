// Package loadgen drives an MIO query server (internal/server, via
// cmd/miosrv or an embedded handler) with a configurable open-loop
// workload and reports throughput, latency percentiles and the
// server-side serving metrics (cache hits, coalesced runs) observed
// during the run.
//
// The threshold mix is Zipf-skewed over a fixed set of r values: real
// monitoring workloads ask a few popular thresholds most of the time,
// which is exactly the shape request coalescing and result caching
// exploit. A uniform mix (Skew = 0) is available as the adversarial
// baseline.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mio/internal/server"
)

// Config describes one load-generation run.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// Concurrency is the number of client workers (default 8).
	Concurrency int
	// Requests is the total number of requests to issue (default 1000).
	Requests int
	// RValues is the threshold set workers draw from (default {4,5,6}).
	RValues []float64
	// Skew is the Zipf s parameter over RValues; values ≤ 1 select a
	// uniform draw. Higher skew concentrates load on RValues[0].
	Skew float64
	// K is the top-k passed on every query (default 1).
	K int
	// Seed makes the workload reproducible (default 1).
	Seed int64
	// Timeout bounds each HTTP request (default 30s).
	Timeout time.Duration
	// MaxAttempts is how many times one logical request may hit the
	// server: 429 (admission rejection) and 503 (drain, breaker) are
	// retried with jittered exponential backoff, honouring any
	// Retry-After the server sent. Default 3; 1 disables retries.
	MaxAttempts int
	// RetryBase is the backoff before the first retry; it doubles per
	// attempt and each sleep is capped at 2s. Default 50ms.
	RetryBase time.Duration
	// Burst switches from the open loop to closed-loop waves: all
	// Concurrency workers fire one request simultaneously, everyone
	// waits for the slowest, then the next wave starts: a standing set
	// of concurrent queries, and the adversarial case for a cache
	// (every wave misses until thresholds repeat).
	Burst bool
	// KSpread, when > 1, cycles each worker's k over 1..KSpread instead
	// of the fixed K, so concurrent queries carry distinct (r, k).
	KSpread int
}

func (c Config) withDefaults() Config {
	if c.Concurrency < 1 {
		c.Concurrency = 8
	}
	if c.Requests < 1 {
		c.Requests = 1000
	}
	if len(c.RValues) == 0 {
		c.RValues = []float64{4, 5, 6}
	}
	if c.K < 1 {
		c.K = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	return c
}

// Report is the outcome of one run.
type Report struct {
	Requests int
	Errors   int           // transport errors
	Retries  int           // extra attempts after 429/503 responses
	Status   map[int]int   // HTTP status → count, final attempt only
	Elapsed  time.Duration // wall clock for the whole run
	QPS      float64       // successful (200) responses per second
	P50      time.Duration // client-observed latency percentiles
	P90      time.Duration
	P99      time.Duration
	Max      time.Duration

	// Server-side deltas over the run, from /metrics.
	EngineRuns  uint64
	Coalesced   uint64
	CacheHits   uint64
	CacheMisses uint64
	Rejected    uint64 // admission-control 429s

	// Sharded-serving deltas, zero unless the server runs with
	// Config.Shards (the /metrics shards section). Sharded is true when
	// the section was present, so an all-zero healthy run still prints.
	Sharded       bool
	ShardCount    int
	ShardDegraded uint64 // queries answered with a certified interval
	ShardHedges   uint64 // speculative attempts against stragglers
	ShardRetries  uint64 // bound attempts relaunched after a failure
	ShardDowns    uint64 // per-query shard outcomes that ended down/late
	ShardStale    uint64 // remote responses rejected by the generation guard
	ShardBad      uint64 // remote responses rejected by strict validation
}

// String renders the report as the human-readable block cmd/mioload
// prints.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  requests      %d (%d errors)\n", r.Requests, r.Errors)
	if r.Retries > 0 {
		fmt.Fprintf(&b, "  retries       %d\n", r.Retries)
	}
	codes := make([]int, 0, len(r.Status))
	for c := range r.Status {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "    HTTP %d      %d\n", c, r.Status[c])
	}
	fmt.Fprintf(&b, "  elapsed       %v\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  throughput    %.0f q/s\n", r.QPS)
	fmt.Fprintf(&b, "  latency       p50 %v  p90 %v  p99 %v  max %v\n",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	fmt.Fprintf(&b, "  engine runs   %d\n", r.EngineRuns)
	fmt.Fprintf(&b, "  coalesced     %d\n", r.Coalesced)
	fmt.Fprintf(&b, "  cache         %d hits / %d misses\n", r.CacheHits, r.CacheMisses)
	if r.Rejected > 0 {
		fmt.Fprintf(&b, "  rejected 429  %d\n", r.Rejected)
	}
	if r.Sharded {
		rate := 0.0
		if ok := r.Status[http.StatusOK]; ok > 0 {
			rate = 100 * float64(r.ShardDegraded) / float64(ok)
		}
		fmt.Fprintf(&b, "  shards        %d, degraded %d (%.1f%% of 200s)\n",
			r.ShardCount, r.ShardDegraded, rate)
		fmt.Fprintf(&b, "  shard faults  %d retries, %d hedges, %d down/late outcomes\n",
			r.ShardRetries, r.ShardHedges, r.ShardDowns)
		if r.ShardStale > 0 || r.ShardBad > 0 {
			fmt.Fprintf(&b, "  shard reject  %d stale-generation, %d invalid responses\n",
				r.ShardStale, r.ShardBad)
		}
	}
	return b.String()
}

// picker draws threshold indices; Zipf-skewed when cfg.Skew > 1.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func newPicker(cfg Config, seed int64) *picker {
	p := &picker{rng: rand.New(rand.NewSource(seed)), n: len(cfg.RValues)}
	if cfg.Skew > 1 && p.n > 1 {
		p.zipf = rand.NewZipf(p.rng, cfg.Skew, 1, uint64(p.n-1))
	}
	return p
}

func (p *picker) next() int {
	if p.zipf != nil {
		return int(p.zipf.Uint64())
	}
	return p.rng.Intn(p.n)
}

// workerOut accumulates one client worker's observations.
type workerOut struct {
	lat     []time.Duration
	status  map[int]int
	errs    int
	retries int
}

// worker is one client worker: its own picker (reproducible draws),
// its own request counter (drives the k cycle) and its own output, so
// no two goroutines share state.
type worker struct {
	id   int // phase-shifts the k cycle so a burst wave spans all k values
	pick *picker
	seq  int
	out  workerOut
}

// one issues a single logical request, retrying 429/503 with backoff.
// Latency is measured across the whole logical request, backoff sleeps
// included — what a retrying client actually experiences.
func (w *worker) one(client *http.Client, cfg Config) {
	r := cfg.RValues[w.pick.next()]
	k := cfg.K
	if cfg.KSpread > 1 {
		k = 1 + (w.id+w.seq)%cfg.KSpread
	}
	w.seq++
	url := fmt.Sprintf("%s/v1/query?r=%g&k=%d", cfg.BaseURL, r, k)
	q0 := time.Now()
	for attempt := 1; ; attempt++ {
		resp, err := client.Get(url)
		if err != nil {
			w.out.errs++
			return
		}
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if !retryable(resp.StatusCode) || attempt >= cfg.MaxAttempts {
			w.out.lat = append(w.out.lat, time.Since(q0))
			w.out.status[resp.StatusCode]++
			return
		}
		w.out.retries++
		time.Sleep(backoff(cfg, attempt, retryAfter, w.pick.rng))
	}
}

// Run executes the workload and gathers the report. The server's
// /metrics endpoint is read before and after to compute serving
// deltas, so concurrent external traffic would pollute them.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	client := &http.Client{Timeout: cfg.Timeout}
	before, err := fetchMetrics(client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: server unreachable: %w", err)
	}

	ws := make([]*worker, cfg.Concurrency)
	for w := range ws {
		ws[w] = &worker{
			id:   w,
			pick: newPicker(cfg, cfg.Seed+int64(w)*7919),
			out:  workerOut{status: make(map[int]int)},
		}
	}
	t0 := time.Now()
	if cfg.Burst {
		// Closed loop: every wave puts Concurrency requests in flight at
		// once and waits for the slowest before the next wave.
		for issued := 0; issued < cfg.Requests; {
			m := cfg.Concurrency
			if rest := cfg.Requests - issued; m > rest {
				m = rest
			}
			var wg sync.WaitGroup
			for w := 0; w < m; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ws[w].one(client, cfg)
				}(w)
			}
			wg.Wait()
			issued += m
		}
	} else {
		var wg sync.WaitGroup
		share := cfg.Requests / cfg.Concurrency
		extra := cfg.Requests % cfg.Concurrency
		for w := 0; w < cfg.Concurrency; w++ {
			n := share
			if w < extra {
				n++
			}
			wg.Add(1)
			go func(w, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					ws[w].one(client, cfg)
				}
			}(w, n)
		}
		wg.Wait()
	}
	elapsed := time.Since(t0)

	after, err := fetchMetrics(client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: reading post-run metrics: %w", err)
	}

	rep := &Report{Requests: cfg.Requests, Status: make(map[int]int), Elapsed: elapsed}
	var lats []time.Duration
	for _, w := range ws {
		rep.Errors += w.out.errs
		rep.Retries += w.out.retries
		for c, n := range w.out.status {
			rep.Status[c] += n
		}
		lats = append(lats, w.out.lat...)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep.P50, rep.P90, rep.P99 = quantile(lats, 0.50), quantile(lats, 0.90), quantile(lats, 0.99)
	if len(lats) > 0 {
		rep.Max = lats[len(lats)-1]
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.QPS = float64(rep.Status[http.StatusOK]) / secs
	}
	rep.EngineRuns = after.EngineRuns - before.EngineRuns
	rep.Coalesced = after.Coalesced - before.Coalesced
	rep.CacheHits = after.Cache.Hits - before.Cache.Hits
	rep.CacheMisses = after.Cache.Misses - before.Cache.Misses
	rep.Rejected = after.AdmissionRejected - before.AdmissionRejected
	if before.Shards != nil && after.Shards != nil {
		rep.Sharded = true
		rep.ShardCount = after.Shards.Shards
		rep.ShardDegraded = after.Shards.DegradedTotal - before.Shards.DegradedTotal
		rep.ShardHedges = after.Shards.HedgesTotal - before.Shards.HedgesTotal
		rep.ShardRetries = after.Shards.RetriesTotal - before.Shards.RetriesTotal
		rep.ShardDowns = after.Shards.DownsTotal - before.Shards.DownsTotal
		rep.ShardStale = after.Shards.StaleTotal - before.Shards.StaleTotal
		rep.ShardBad = after.Shards.BadResponsesTotal - before.Shards.BadResponsesTotal
	}
	return rep, nil
}

// retryable reports whether a status signals transient overload worth
// another attempt: 429 from admission control, 503 from draining or an
// open circuit breaker.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// backoff computes the sleep before retry #attempt: the server's
// Retry-After when present, otherwise jittered exponential backoff
// from cfg.RetryBase. Every sleep is capped at 2s so a misbehaving
// server cannot stall the workload.
func backoff(cfg Config, attempt int, retryAfter string, rng *rand.Rand) time.Duration {
	const maxSleep = 2 * time.Second
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
		d := time.Duration(secs) * time.Second
		if d > maxSleep {
			d = maxSleep
		}
		return d
	}
	d := cfg.RetryBase << (attempt - 1)
	if d > maxSleep {
		d = maxSleep
	}
	// Full jitter: a uniform draw in (0, d] de-synchronises workers
	// that were rejected together.
	return time.Duration(rng.Int63n(int64(d))) + 1
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func fetchMetrics(client *http.Client, base string) (*server.MetricsSnapshot, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	var snap server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
