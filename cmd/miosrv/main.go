// Command miosrv serves MIO queries over HTTP: it loads (or
// generates) a dataset once, keeps a pool of engines sharing one
// label store so queries with the same ⌈r⌉ recycle label work
// (§III-D), and wraps them in request coalescing, a bounded result
// cache and admission control (DESIGN.md §9).
//
// Usage:
//
//	miosrv -data birds.bin -addr :8080 -inflight 4
//	miosrv -gen syn -scale 0.5            # serve a generated dataset
//	miosrv -data d.bin -no-cache -no-coalesce  # measure the raw engine
//	miosrv -gen syn -faults 'seed=42;engine.verification=panic:0.01'  # chaos mode
//	miosrv -gen syn -state-dir ./state    # durable: restarts recover dataset + labels
//	miosrv -gen syn -shards 4             # fault-tolerant sharded scatter–gather
//
// Multi-process sharded serving splits the same scatter–gather across
// real processes (DESIGN.md §17). Every process loads the identical
// dataset (same -data file, or same -gen/-seed/-scale):
//
//	miosrv -gen syn -shards 3 -shard-serve -shard-index 0 -addr :7001   # worker 0
//	miosrv -gen syn -shards 3 -shard-serve -shard-index 1 -addr :7002   # worker 1
//	miosrv -gen syn -shards 3 -shard-serve -shard-index 2 -addr :7003   # worker 2
//	miosrv -gen syn -shards-at http://localhost:7001,http://localhost:7002,http://localhost:7003
//
// A worker serves one shard's bound/verify phases plus a /shardz
// health endpoint; the coordinator validates every worker response
// (checksummed envelope, dataset-generation stamp, range and order
// checks) and degrades to certified [LB, UB] intervals when workers
// die, flap, or answer from the wrong dataset generation.
//
// At most one of -batch, -shards and -shards-at may be given: each
// selects what answers /v1/query (server.Config.Validate). All flag
// combinations are validated before the dataset is loaded, so a bad
// invocation fails in milliseconds.
//
// With -state-dir the server keeps its state in a crash-safe snapshot
// directory: the dataset (and every label set queries compute) is
// committed as a checksummed generation, dataset swaps commit a new
// generation before serving it, and a restart recovers the last good
// generation — warm labels included — quarantining anything corrupt.
// On a warm restart -data/-gen are ignored in favour of the recovered
// generation; use POST /v1/dataset to replace it.
//
// Endpoints: GET /v1/query?r=&k=, /v1/interacting?r=&obj=,
// /v1/scores?r=, /v1/sweep?rs=&k=, /healthz, /metrics; POST
// /v1/dataset (only with -allow-swap). SIGINT/SIGTERM drain in-flight
// requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/durable"
	"mio/internal/fault"
	"mio/internal/server"
	"mio/internal/shard/remote"
)

func main() {
	var (
		dataPath = flag.String("data", "", "dataset file to serve")
		gen      = flag.String("gen", "", "serve a generated dataset instead: neuron, bird, syn, uniform, or adversarial onecell, sparse, powersize, commute")
		scale    = flag.Float64("scale", 1, "size multiplier for -gen")
		seed     = flag.Int64("seed", 1, "RNG seed for -gen")
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 1, "CPU cores per engine (≥2 enables parallel processing)")
		dims     = flag.Int("dims", 3, "data dimensionality (2 or 3)")
		inflight = flag.Int("inflight", 1, "max concurrent engine runs (sizes the engine pool)")
		labelDir = flag.String("labels", "", "directory for a persistent label store (default in-memory)")
		stateDir = flag.String("state-dir", "", "durable state directory: crash-safe dataset generations + per-generation labels")
		noLabels = flag.Bool("no-labels", false, "disable the §III-D label store")
		cacheSz  = flag.Int("cache", 256, "result cache capacity in entries")
		noCache  = flag.Bool("no-cache", false, "disable the result cache")
		noCoal   = flag.Bool("no-coalesce", false, "disable request coalescing")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request engine deadline (0 disables)")
		admWait  = flag.Duration("admission-wait", 100*time.Millisecond, "max time a request queues for an engine slot")
		swap     = flag.Bool("allow-swap", false, "enable POST /v1/dataset (reads server-local paths)")
		faults   = flag.String("faults", "", "arm fault injection for chaos testing, e.g. 'seed=42;engine.verification=panic:0.01;server.run=latency:0.1:5ms'")
		batchOn  = flag.Bool("batch", false, "route /v1/query through epoch-driven batch execution (queries sharing ⌈r⌉ share one index build and cell walk)")
		batchWin = flag.Duration("batch-window", 0, "batch epoch gather window (0 selects the default 2ms; needs -batch)")
		batchMax = flag.Int("batch-max", 0, "seal a batch epoch early at this many queries (0 selects the default 128; needs -batch)")
		shards   = flag.Int("shards", 0, "partition the dataset across this many shard engines behind a fault-tolerant scatter–gather coordinator (0 disables)")
		shardR   = flag.Float64("shard-max-r", 0, "replica horizon: largest r the shards answer exactly, larger radii fall back to the solo pool (0 selects 10; needs -shards)")
		shardTO  = flag.Duration("shard-timeout", 0, "per-shard attempt deadline (0 selects 2s; needs -shards)")
		shardTry = flag.Int("shard-retries", 0, "per-shard retry budget after a failed attempt (0 selects 1, negative disables; needs -shards)")
		shardHdg = flag.Duration("shard-hedge", 0, "launch a speculative extra attempt against a straggling shard after this long (0 selects timeout/4, negative disables; needs -shards)")
		shardSrv = flag.Bool("shard-serve", false, "run as one shard WORKER of a multi-process cluster: serve this shard's bound/verify phases plus /shardz (needs -shards for the partition count and -shard-index)")
		shardIdx = flag.Int("shard-index", 0, "this worker's shard id in [0, shards) (needs -shard-serve)")
		shardsAt = flag.String("shards-at", "", "run as the COORDINATOR of a multi-process cluster: comma-separated worker base URLs in shard-id order, e.g. http://h1:7001,http://h2:7001")
		shardPrb = flag.Duration("shard-probe", 0, "remote worker health-probe interval (0 selects 1s; needs -shards-at)")
	)
	flag.Parse()

	// Validate every flag combination up front, before any dataset is
	// loaded or generated: a bad invocation must fail in milliseconds
	// with one clear line, not after minutes of generation.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	switch {
	case (*batchWin != 0 || *batchMax != 0) && !*batchOn:
		fatal("-batch-window/-batch-max require -batch")
	case (*shardR != 0 || *shardTO != 0 || *shardTry != 0 || *shardHdg != 0) && *shards == 0 && *shardsAt == "":
		fatal("-shard-max-r/-shard-timeout/-shard-retries/-shard-hedge require -shards or -shards-at")
	case *shardSrv && *shardsAt != "":
		fatal("-shard-serve and -shards-at cannot be combined (one process is a worker or a coordinator, not both)")
	case *shardSrv && *shards < 2:
		fatal("-shard-serve requires -shards ≥ 2 (the cluster's total partition count)")
	case *shardSrv && (*shardIdx < 0 || *shardIdx >= *shards):
		fatal(fmt.Sprintf("-shard-index %d outside [0, %d)", *shardIdx, *shards))
	case explicit["shard-index"] && !*shardSrv:
		fatal("-shard-index requires -shard-serve")
	case *shardSrv && (*batchOn || *swap || *stateDir != ""):
		fatal("-shard-serve is a bare shard worker: incompatible with -batch, -allow-swap, -state-dir")
	case *shardPrb != 0 && *shardsAt == "":
		fatal("-shard-probe requires -shards-at")
	case *labelDir != "" && *stateDir != "":
		fatal("-labels and -state-dir are mutually exclusive (labels live inside the state directory)")
	case *dataPath != "" && *gen != "":
		fatal("-data and -gen are mutually exclusive")
	}

	var reg *fault.Registry
	if *faults != "" {
		var err error
		reg, err = fault.Parse(*faults)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "miosrv: FAULT INJECTION ARMED: %s\n", reg)
	}

	// The server config takes part in the up-front validation; its
	// durable state is attached once the dataset is resolved.
	cfg := server.Config{
		MaxInFlight:        *inflight,
		AdmissionWait:      *admWait,
		QueryTimeout:       queryTimeout(*timeout),
		CacheSize:          *cacheSz,
		DisableCache:       *noCache,
		DisableCoalesce:    *noCoal,
		AllowSwap:          *swap,
		Faults:             reg,
		BatchExecution:     *batchOn,
		BatchWindow:        *batchWin,
		BatchMaxSize:       *batchMax,
		Shards:             *shards,
		ShardMaxR:          *shardR,
		ShardTimeout:       *shardTO,
		ShardRetries:       *shardTry,
		ShardHedgeAfter:    *shardHdg,
		ShardAddrs:         splitAddrs(*shardsAt),
		ShardProbeInterval: *shardPrb,
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	// Resolve the served dataset. With -state-dir a committed generation
	// wins over -data/-gen (warm restart); an empty state directory gets
	// its first generation from them.
	var (
		ds         *data.Dataset
		st         *server.DurableState
		stateStore *labelstore.Store
	)
	if *stateDir != "" {
		var err error
		st, err = server.OpenState(*stateDir, durable.IO{Faults: reg})
		if err != nil {
			fatal(err)
		}
		rec, err := st.Recover()
		if err != nil {
			fatal(err)
		}
		if rec != nil {
			if *dataPath != "" || *gen != "" {
				fmt.Fprintln(os.Stderr, "miosrv: state dir holds a committed generation; ignoring -data/-gen (POST /v1/dataset to replace)")
			}
			ds, stateStore = rec.Dataset, rec.Labels
			fmt.Fprintf(os.Stderr, "miosrv: recovered generation %d from %s\n", rec.Generation, *stateDir)
		} else {
			if ds, err = loadOrGen(*dataPath, *gen, *scale, *seed); err != nil {
				fatal(err)
			}
			var genNum uint64
			if stateStore, genNum, err = st.CommitDataset(ds); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "miosrv: committed generation %d to %s\n", genNum, *stateDir)
		}
	} else {
		var err error
		if ds, err = loadOrGen(*dataPath, *gen, *scale, *seed); err != nil {
			fatal(err)
		}
	}

	opts := core.Options{Dims: *dims, Workers: *workers}
	if !*noLabels {
		switch {
		case stateStore != nil:
			opts.Labels = stateStore
		case *labelDir != "":
			store, err := labelstore.NewDiskStore(*labelDir)
			if err != nil {
				fatal(err)
			}
			opts.Labels = store
		default:
			opts.Labels = labelstore.NewStore()
		}
	}
	if *shardSrv {
		// One shard worker. Its engine pool gets two slots per
		// coordinator-side in-flight query (original + hedge), mirroring
		// the in-process provisioning rule.
		w, err := remote.NewWorker(ds, opts, remote.WorkerConfig{
			Index:  *shardIdx,
			Shards: *shards,
			MaxR:   *shardR,
			Pool:   2 * *inflight,
			Faults: reg,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("miosrv: shard worker %d/%d serving %q on %s (generation %d)\n",
			*shardIdx, *shards, ds.Name, *addr, w.Stamp().Generation)
		serve(*addr, w.Handler(), w.Close)
		return
	}

	cfg.State = st
	srv, err := server.New(ds, opts, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("miosrv: serving %q (%d objects, %d points) on %s  "+
		"(pool %d, cache %v, coalesce %v, batch %v, shards %d)\n",
		ds.Name, ds.N(), ds.TotalPoints(), *addr, srv.MaxInFlight(), !*noCache, !*noCoal, *batchOn, *shards)
	serve(*addr, srv.Handler(), srv.Drain)
}

// serve runs handler on addr until SIGINT/SIGTERM, then calls drain
// (the server waits out in-flight requests and answers later ones 503;
// a worker abandons its paused bound phases) and shuts the listener
// down gracefully.
func serve(addr string, handler http.Handler, drain func()) {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()

	select {
	case err := <-done:
		// ListenAndServe only returns on failure here (Shutdown is the
		// other path, taken below).
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "miosrv: draining")
	drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "miosrv: shutdown:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "miosrv: bye")
}

// splitAddrs parses the -shards-at list, trimming whitespace and
// dropping empty entries.
func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// queryTimeout maps the flag convention (0 disables) onto the server
// convention (0 means default, negative disables).
func queryTimeout(d time.Duration) time.Duration {
	if d == 0 {
		return -1
	}
	return d
}

func loadOrGen(path, gen string, scale float64, seed int64) (*data.Dataset, error) {
	switch {
	case path != "" && gen != "":
		return nil, errors.New("-data and -gen are mutually exclusive")
	case path != "":
		return data.LoadFile(path)
	case gen == "":
		return nil, errors.New("one of -data or -gen is required")
	}
	clamp := func(v float64) int {
		if v < 1 {
			return 1
		}
		return int(v)
	}
	switch gen {
	case "neuron":
		cfg := data.DefaultNeuron()
		cfg.N = clamp(float64(cfg.N) * scale)
		cfg.Seed = seed
		return data.GenNeuron(cfg), nil
	case "bird":
		cfg := data.DefaultBird()
		cfg.N = clamp(float64(cfg.N) * scale)
		cfg.Seed = seed
		return data.GenTrajectory(cfg), nil
	case "syn":
		cfg := data.DefaultSyn()
		cfg.N = clamp(float64(cfg.N) * scale)
		cfg.Seed = seed
		return data.GenPowerLaw(cfg), nil
	case "uniform":
		cfg := data.UniformConfig{N: clamp(2000 * scale), M: 16, FieldSize: 1000, Spread: 8, Seed: seed}
		return data.GenUniform(cfg), nil
	case "onecell":
		cfg := data.DefaultOneCell()
		cfg.N = clamp(float64(cfg.N) * scale)
		cfg.Seed = seed
		return data.GenOneCell(cfg), nil
	case "sparse":
		cfg := data.DefaultUniformSparse()
		cfg.N = clamp(float64(cfg.N) * scale)
		cfg.Seed = seed
		return data.GenUniformSparse(cfg), nil
	case "powersize":
		cfg := data.DefaultPowerLawSizes()
		cfg.N = clamp(float64(cfg.N) * scale)
		cfg.Seed = seed
		return data.GenPowerLawSizes(cfg), nil
	case "commute":
		cfg := data.DefaultHotspotCommute()
		cfg.N = clamp(float64(cfg.N) * scale)
		cfg.Seed = seed
		return data.GenHotspotCommute(cfg), nil
	}
	return nil, fmt.Errorf("unknown -gen dataset %q", gen)
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "miosrv:", v)
	os.Exit(1)
}
