// Command miosrv serves MIO queries over HTTP: it loads (or
// generates) a dataset once, keeps one engine whose queries share one
// label store so queries with the same ⌈r⌉ recycle label work
// (§III-D), and wraps it in request coalescing, a bounded result
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
// readiness and count endpoint, which the coordinator does not poll.
// The coordinator validates every worker response (checksummed
// envelope, dataset-generation stamp, range and order checks), lets
// each shard's circuit breaker alone decide whether its worker is
// tried, and degrades to certified [LB, UB] intervals when workers die,
// flap, or answer from the wrong dataset generation.
//
// -shards and -shards-at exclude each other: each selects what answers
// /v1/query (server.Config.Validate). All flag combinations are
// validated before the dataset is loaded, so a bad invocation fails in
// milliseconds.
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
	"unicode"

	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/durable"
	"mio/internal/fault"
	"mio/internal/server"
	"mio/internal/shard"
	"mio/internal/shard/remote"
)

// options is what the command line decides: the server configuration
// plus everything main needs before a server exists.
type options struct {
	dataPath, gen      string
	scale              float64
	seed               int64
	addr               string
	workers, dims      int
	labelDir, stateDir string
	noLabels           bool
	faults             string
	shardServe         bool
	shardIndex         int
	timeout            time.Duration // flag convention; cfg.QueryTimeout has the server's
	shardsAt           string        // raw list; cfg.ShardAddrs has it split
	cfg                server.Config // Faults and State are attached by main
}

// flagSet registers every miosrv flag on o.
func flagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("miosrv", flag.ContinueOnError)
	fs.StringVar(&o.dataPath, "data", "", "dataset file to serve")
	fs.StringVar(&o.gen, "gen", "", "serve a generated dataset instead: "+data.Names())
	fs.Float64Var(&o.scale, "scale", 1, "size multiplier for -gen")
	fs.Int64Var(&o.seed, "seed", 0, "RNG seed for -gen (0 = the dataset's default)")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.workers, "workers", 1, "CPU cores per engine (≥2 enables parallel processing)")
	fs.IntVar(&o.dims, "dims", 3, "data dimensionality (2 or 3)")
	fs.IntVar(&o.cfg.MaxInFlight, "inflight", 1, "max concurrent engine runs (sizes the engine pool)")
	fs.StringVar(&o.labelDir, "labels", "", "directory for a persistent label store (default in-memory)")
	fs.StringVar(&o.stateDir, "state-dir", "", "durable state directory: crash-safe dataset generations + per-generation labels")
	fs.BoolVar(&o.noLabels, "no-labels", false, "disable the §III-D label store")
	fs.IntVar(&o.cfg.CacheSize, "cache", 256, "result cache capacity in entries")
	fs.BoolVar(&o.cfg.DisableCache, "no-cache", false, "disable the result cache")
	fs.BoolVar(&o.cfg.DisableCoalesce, "no-coalesce", false, "disable request coalescing")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request engine deadline (0 disables)")
	fs.DurationVar(&o.cfg.AdmissionWait, "admission-wait", 100*time.Millisecond, "max time a request queues for an engine slot")
	fs.BoolVar(&o.cfg.AllowSwap, "allow-swap", false, "enable POST /v1/dataset (reads server-local paths)")
	fs.StringVar(&o.faults, "faults", "", "arm fault injection for chaos testing, e.g. 'seed=42;engine.verification=panic:0.01;server.run=latency:0.1:5ms'")
	fs.IntVar(&o.cfg.Shards, "shards", 0, "partition the dataset across this many shard engines behind a fault-tolerant scatter–gather coordinator (0 disables)")
	fs.Float64Var(&o.cfg.ShardMaxR, "shard-max-r", 0, "replica horizon: largest r the shards answer exactly, larger radii fall back to the solo pool (0 selects 10; needs -shards)")
	fs.IntVar(&o.cfg.ShardRetries, "shard-retries", 0, "per-shard retry budget after a failed attempt (0 selects 1, negative disables; needs -shards)")
	fs.DurationVar(&o.cfg.ShardHedgeAfter, "shard-hedge", 0, "launch a speculative extra attempt against a straggling shard after this long (0 selects a quarter of the per-shard deadline, negative disables; needs -shards)")
	fs.BoolVar(&o.shardServe, "shard-serve", false, "run as one shard WORKER of a multi-process cluster: serve this shard's bound/verify phases plus /shardz (needs -shards for the partition count and -shard-index)")
	fs.IntVar(&o.shardIndex, "shard-index", 0, "this worker's shard id in [0, shards) (needs -shard-serve)")
	fs.StringVar(&o.shardsAt, "shards-at", "", "run as the COORDINATOR of a multi-process cluster: comma-separated worker base URLs in shard-id order, e.g. http://h1:7001,http://h2:7001")
	return fs
}

// parseFlags parses the command line and validates every flag
// combination, server.Config.Validate included, before any dataset is
// loaded: a bad invocation fails in milliseconds with one clear line.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flagSet(o)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.cfg.QueryTimeout = queryTimeout(o.timeout)
	// Comma-separated; whitespace and empty entries are dropped.
	o.cfg.ShardAddrs = strings.FieldsFunc(o.shardsAt, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })

	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	c := &o.cfg
	switch {
	case (c.ShardMaxR != 0 || c.ShardRetries != 0 || c.ShardHedgeAfter != 0) && c.Shards == 0 && o.shardsAt == "":
		return nil, errors.New("-shard-max-r/-shard-retries/-shard-hedge require -shards or -shards-at")
	case o.shardServe && o.shardsAt != "":
		return nil, errors.New("-shard-serve and -shards-at cannot be combined (one process is a worker or a coordinator, not both)")
	case o.shardServe && c.Shards < 2:
		return nil, errors.New("-shard-serve requires -shards ≥ 2 (the cluster's total partition count)")
	case o.shardServe && (o.shardIndex < 0 || o.shardIndex >= c.Shards):
		return nil, fmt.Errorf("-shard-index %d outside [0, %d)", o.shardIndex, c.Shards)
	case explicit["shard-index"] && !o.shardServe:
		return nil, errors.New("-shard-index requires -shard-serve")
	case o.shardServe && (c.AllowSwap || o.stateDir != ""):
		return nil, errors.New("-shard-serve is a bare shard worker: incompatible with -allow-swap, -state-dir")
	case o.labelDir != "" && o.stateDir != "":
		return nil, errors.New("-labels and -state-dir are mutually exclusive (labels live inside the state directory)")
	case o.dataPath != "" && o.gen != "":
		return nil, errors.New("-data and -gen are mutually exclusive")
	}
	return o, c.Validate()
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fatal(err)
	}
	var reg *fault.Registry
	if o.faults != "" {
		reg, err = fault.Parse(o.faults)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "miosrv: FAULT INJECTION ARMED: %s\n", reg)
	}
	cfg := o.cfg
	cfg.Faults = reg

	// Resolve the served dataset. With -state-dir a committed generation
	// wins over -data/-gen (warm restart); an empty state directory gets
	// its first generation from them.
	var (
		ds         *data.Dataset
		stateStore *labelstore.Store
	)
	if o.stateDir != "" {
		cfg.State, err = server.OpenState(o.stateDir, durable.IO{Faults: reg})
		if err != nil {
			fatal(err)
		}
		rec, err := cfg.State.Recover()
		if err != nil {
			fatal(err)
		}
		if rec != nil {
			if o.dataPath != "" || o.gen != "" {
				fmt.Fprintln(os.Stderr, "miosrv: state dir holds a committed generation; ignoring -data/-gen (POST /v1/dataset to replace)")
			}
			ds, stateStore = rec.Dataset, rec.Labels
			fmt.Fprintf(os.Stderr, "miosrv: recovered generation %d from %s\n", rec.Generation, o.stateDir)
		} else {
			if ds, err = loadOrGen(o); err != nil {
				fatal(err)
			}
			var genNum uint64
			if stateStore, genNum, err = cfg.State.CommitDataset(ds); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "miosrv: committed generation %d to %s\n", genNum, o.stateDir)
		}
	} else if ds, err = loadOrGen(o); err != nil {
		fatal(err)
	}

	opts := core.Options{Dims: o.dims, Workers: o.workers}
	if !o.noLabels {
		switch {
		case stateStore != nil:
			opts.Labels = stateStore
		case o.labelDir != "":
			store, err := labelstore.NewDiskStore(o.labelDir)
			if err != nil {
				fatal(err)
			}
			opts.Labels = store
		default:
			opts.Labels = labelstore.NewStore()
		}
	}
	if o.shardServe {
		// One shard worker. Its engine pool gets shard.SlotsPerQuery
		// slots per coordinator-side in-flight query, the in-process
		// provisioning rule.
		w, err := remote.NewWorker(ds, opts, remote.WorkerConfig{
			Index:  o.shardIndex,
			Shards: cfg.Shards,
			MaxR:   cfg.ShardMaxR,
			Pool:   shard.SlotsPerQuery * cfg.MaxInFlight,
			Faults: reg,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("miosrv: shard worker %d/%d serving %q on %s (generation %d)\n",
			o.shardIndex, cfg.Shards, ds.Name, o.addr, w.Stamp().Generation)
		serve(o.addr, w.Handler(), w.Close)
		return
	}

	srv, err := server.New(ds, opts, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("miosrv: serving %q (%d objects, %d points) on %s  "+
		"(pool %d, cache %v, coalesce %v, shards %d)\n",
		ds.Name, ds.N(), ds.TotalPoints(), o.addr, srv.MaxInFlight(), !cfg.DisableCache, !cfg.DisableCoalesce, cfg.Shards)
	serve(o.addr, srv.Handler(), srv.Drain)
}

// serve runs handler on addr until SIGINT/SIGTERM, then calls drain
// (the server waits out in-flight requests and answers later ones 503;
// a worker abandons its paused bound phases) and shuts the listener
// down gracefully. A keep-alive connection idle for a minute is closed,
// so a peer that stopped talking without closing holds none for good.
func serve(addr string, handler http.Handler, drain func()) {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       time.Minute,
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

// queryTimeout maps the flag convention (0 disables) onto the server
// convention (0 means default, negative disables).
func queryTimeout(d time.Duration) time.Duration {
	if d == 0 {
		return -1
	}
	return d
}

// loadOrGen resolves -data / -gen (parseFlags has refused both).
func loadOrGen(o *options) (*data.Dataset, error) {
	switch {
	case o.dataPath != "":
		return data.LoadFile(o.dataPath)
	case o.gen == "":
		return nil, errors.New("one of -data or -gen is required")
	}
	return data.ByName(o.gen, o.scale, 0, 0, o.seed)
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "miosrv:", v)
	os.Exit(1)
}
