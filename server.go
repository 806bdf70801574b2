package mio

import (
	"net/http"
	"time"

	"mio/internal/server"
)

// ServerOptions tunes the embedded MIO query server returned by
// Handler. The zero value selects the defaults documented per field.
type ServerOptions struct {
	// CacheSize is the result cache capacity in entries (default 256).
	CacheSize int
	// QueryTimeout is the per-request engine deadline (default 30s;
	// negative disables it).
	QueryTimeout time.Duration
	// AdmissionWait is how long a request may queue for the engine
	// before a 429 (default 100ms; negative rejects immediately).
	AdmissionWait time.Duration
	// DisableCache turns off result caching.
	DisableCache bool
	// DisableCoalesce turns off single-flight request coalescing.
	DisableCoalesce bool
	// MaxSweep bounds the thresholds per /v1/sweep request (default 64).
	MaxSweep int
}

// Handler returns an http.Handler serving the MIO query API over e,
// for embedding the server into an existing process: GET /v1/query,
// /v1/interacting, /v1/scores, /v1/sweep, /healthz and /metrics (see
// DESIGN.md §9 for the wire format). Requests are coalesced
// (concurrent identical queries share one engine run), results are
// cached in a bounded LRU, and engine runs are serialised — the
// Engine contract allows one query at a time — with queueing
// requests rejected 429 once AdmissionWait expires. For more than
// one query slot, dataset swapping and graceful drain, use
// cmd/miosrv.
func Handler(e *Engine, opts ServerOptions) http.Handler {
	return server.NewFromEngine(e.inner, server.Config{
		CacheSize:       opts.CacheSize,
		QueryTimeout:    opts.QueryTimeout,
		AdmissionWait:   opts.AdmissionWait,
		DisableCache:    opts.DisableCache,
		DisableCoalesce: opts.DisableCoalesce,
		MaxSweep:        opts.MaxSweep,
	}).Handler()
}
