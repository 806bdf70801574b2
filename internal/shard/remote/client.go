package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"mio/internal/core"
	"mio/internal/durable"
	"mio/internal/fault"
	"mio/internal/shard"
)

// The client's transport policy:
//   - the health prober reads /shardz every probeInterval, each read
//     bounded by probeTimeout;
//   - downAfter consecutive failures (probe or query) mark the worker
//     down; until then it is suspect;
//   - responses are read up to maxResponseBytes: real ones are a few KB
//     (TopLBs and TopK hold at most k entries, stats are fixed-size), so
//     the cap only stops a hostile or broken worker from ballooning the
//     coordinator's memory;
//   - releaseTimeout bounds the best-effort release round trip a pruned
//     shard's bounds fire off-path.
const (
	probeInterval    = time.Second
	probeTimeout     = time.Second
	downAfter        = 3
	maxResponseBytes = 8 << 20
	releaseTimeout   = 2 * time.Second
)

// ClientConfig configures one remote shard client.
type ClientConfig struct {
	// Addr is the worker's base URL (e.g. "http://10.0.0.7:7001").
	Addr string
	// Stamp is the exact stamp every response must carry: the dataset
	// generation the coordinator computed from its own copy of the
	// data, plus this worker's partition slot.
	Stamp Stamp
	// Objects is the global object count n; response ids and scores
	// are range-checked against it.
	Objects int
	// Faults, when non-nil, drives the client-side injection points
	// (net_send, net_recv).
	Faults *fault.Registry
}

// Client drives one remote shard worker and implements shard.Backend:
// the coordinator's retry/hedge/breaker machinery calls it exactly
// like an in-process engine pool. Every response is size-capped,
// envelope-checked, strictly decoded, stamp-verified and
// range-validated before a byte of it reaches the merge.
type Client struct {
	cfg ClientConfig
	// http is the client's own transport; per-request contexts carry
	// the deadlines, so it needs no global timeout.
	http *http.Client

	mu        sync.Mutex
	state     string // ProbeUp / ProbeSuspect / ProbeDown
	fails     int    // consecutive probe/query failures
	lastErr   string
	stale     bool      // the last failure was a stale generation
	lastProbe time.Time // zero: never probed
	objects   int       // from the last good /shardz
	primaries int
	replicas  int

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewClient builds a client for one worker and starts its health
// prober. The worker starts as suspect — attempts are allowed (the
// breaker absorbs early failures) but the shard is not yet trusted as
// up — and transitions on the first probe or query.
func NewClient(cfg ClientConfig) *Client { return newClient(cfg, probeInterval) }

// newClient is NewClient probing every interval; tests shorten it.
func newClient(cfg ClientConfig, every time.Duration) *Client {
	c := &Client{
		cfg:   cfg,
		http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		state: shard.ProbeSuspect,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go c.probeLoop(every)
	return c
}

// Close stops the health prober and closes the transport's idle
// keep-alive connections, so neither the client nor the worker keeps
// one for it. Idempotent; in-flight calls finish. A request made after
// Close — the Release of a losing attempt the coordinator drains late —
// closes its connection once answered (post); one in flight when Close
// runs returns its connection to the pool, and only the worker's idle
// timeout (miosrv's is a minute) closes that one.
func (c *Client) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	c.http.CloseIdleConnections()
}

// Info snapshots the prober's view for /healthz.
func (c *Client) Info() shard.BackendInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	ago := time.Duration(-1)
	if !c.lastProbe.IsZero() {
		ago = time.Since(c.lastProbe)
	}
	return shard.BackendInfo{
		Objects:      c.objects,
		Primaries:    c.primaries,
		Replicas:     c.replicas,
		Addr:         c.cfg.Addr,
		Generation:   c.cfg.Stamp.Generation,
		State:        c.state,
		LastProbeErr: c.lastErr,
		LastProbeAgo: ago,
	}
}

// Bound runs the worker's bound phase. When the prober considers the
// worker down it fast-fails without a round trip; the prober, not the
// query path, is then responsible for noticing recovery. A worker that
// is down for a stale generation fails the attempt as
// ErrStaleGeneration as well, whichever of prober and query saw the
// stamp first: the coordinator counts stale attempts, and the count
// must not depend on who won that race.
func (c *Client) Bound(ctx context.Context, r float64, k int) (shard.Bounds, error) {
	if st, lastErr, stale := c.snapshotState(); st == shard.ProbeDown {
		err := fmt.Errorf("%w: %s (last error: %s)", shard.ErrUnreachable, c.cfg.Addr, lastErr)
		if stale {
			err = fmt.Errorf("%w: %w", shard.ErrStaleGeneration, err)
		}
		return nil, err
	}
	payload, err := c.post(ctx, PathBound, BoundRequest{R: r, K: k})
	if err != nil {
		c.noteFailure(err)
		return nil, err
	}
	var resp BoundResponse
	if err := decodeStrict(payload, &resp); err != nil {
		// The worker may still hold the paused phase the response
		// names; a lenient read finds its handle when one is there.
		var named struct {
			Handle uint64 `json:"handle"`
		}
		if json.Unmarshal(payload, &named) == nil {
			c.release(named.Handle)
		}
		err = fmt.Errorf("%w: %s: %v", shard.ErrBadResponse, c.cfg.Addr, err)
		c.noteFailure(err)
		return nil, err
	}
	if err := checkBoundResponse(&resp, c.cfg.Stamp, k, c.cfg.Objects); err != nil {
		c.release(resp.Handle)
		c.noteFailure(err)
		return nil, err
	}
	c.noteSuccess()
	return &remoteBounds{c: c, resp: resp, k: k}, nil
}

// release abandons a worker-side handle, best-effort and off the query
// path: the gather loop must not stall on a round trip whose only
// purpose is returning an engine slot a little earlier than the
// worker's TTL reaper would. Handle 0 names none. A rejected bound
// response releases the handle it names too, so a worker that answered
// with a stale stamp or a body that fails validation does not hold an
// engine for the TTL.
func (c *Client) release(handle uint64) {
	if handle == 0 {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), releaseTimeout)
		defer cancel()
		_, _ = c.post(ctx, PathRelease, ReleaseRequest{Handle: handle})
	}()
}

// post sends a strict-JSON request and returns the validated envelope
// payload of a 200 response (roundTrip); the injected net_send and
// net_recv points fail the exchange at the respective boundary.
func (c *Client) post(ctx context.Context, path string, body any) ([]byte, error) {
	if err := c.cfg.Faults.Fire(fault.PointNetSend); err != nil {
		return nil, fmt.Errorf("%s%s: send: %w", c.cfg.Addr, path, err)
	}
	reqBody, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.Addr+path, bytes.NewReader(reqBody))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	select {
	case <-c.stop:
		req.Close = true // a closed client pools no connection
	default:
	}
	payload, err := c.roundTrip(req, path, c.cfg.Faults)
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusBadRequest {
		// The worker is alive and turned the request itself down.
		err = fmt.Errorf("%w: %w", core.ErrInvalidQuery, err)
	}
	return payload, err
}

// statusError is a non-200 answer: the worker is reachable and said no.
type statusError struct {
	where string // addr + path
	code  int
	msg   string // the worker's own error text, when it sent one
}

func (e *statusError) Error() string {
	if e.msg == "" {
		return fmt.Sprintf("%s: worker answered %d", e.where, e.code)
	}
	return fmt.Sprintf("%s: worker answered %d: %s", e.where, e.code, e.msg)
}

// roundTrip sends req and returns the envelope payload of a 200
// response. Network failures, oversized bodies and corrupt envelopes
// (both ErrBadResponse) and non-200 statuses (a *statusError) all come
// back as errors. recv is fired at net_recv once the body has been read;
// the prober, whose exchanges are not injection points, passes nil.
func (c *Client) roundTrip(req *http.Request, path string, recv *fault.Registry) ([]byte, error) {
	where := c.cfg.Addr + path
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", where, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%s: read: %w", where, err)
	}
	if err := recv.Fire(fault.PointNetRecv); err != nil {
		return nil, fmt.Errorf("%s: recv: %w", where, err)
	}
	if len(data) > maxResponseBytes {
		return nil, fmt.Errorf("%w: %s: response exceeds %d bytes", shard.ErrBadResponse, where, maxResponseBytes)
	}
	if resp.StatusCode != http.StatusOK {
		var we wireError
		_ = json.Unmarshal(data, &we) // a body that is no wireError leaves msg empty
		return nil, &statusError{where: where, code: resp.StatusCode, msg: we.Error}
	}
	payload, err := durable.Open(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", shard.ErrBadResponse, where, err)
	}
	return payload, nil
}

// snapshotState reads the prober state without holding the lock across
// any I/O.
func (c *Client) snapshotState() (state, lastErr string, stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state, c.lastErr, c.stale
}

// noteSuccess records a healthy exchange: the worker is up and the
// failure streak resets.
func (c *Client) noteSuccess() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state = shard.ProbeUp
	c.fails = 0
	c.lastErr = ""
	c.stale = false
}

// noteFailure records a failed exchange. Stale generations mark the
// worker down immediately — it is serving the wrong data, and no
// amount of retrying fixes that — while ordinary failures walk the
// up → suspect → down ladder.
func (c *Client) noteFailure(err error) {
	if errors.Is(err, core.ErrInvalidQuery) {
		return // a refused request says nothing about the worker's health
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastErr = err.Error()
	c.stale = errors.Is(err, shard.ErrStaleGeneration)
	if c.stale {
		c.state = shard.ProbeDown
		c.fails = downAfter
		return
	}
	c.fails++
	if c.fails >= downAfter {
		c.state = shard.ProbeDown
	} else {
		c.state = shard.ProbeSuspect
	}
}

// probeLoop polls /shardz until Close. A successful probe with a
// matching stamp flips the worker (back) to up — including recovery
// from a stale generation after a correct redeploy.
func (c *Client) probeLoop(every time.Duration) {
	defer close(c.done)
	t := time.NewTicker(every)
	defer t.Stop()
	c.probeOnce()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeOnce()
		}
	}
}

func (c *Client) probeOnce() {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	resp, err := c.fetchShardz(ctx)
	c.mu.Lock()
	c.lastProbe = time.Now()
	c.mu.Unlock()
	if err != nil {
		c.noteFailure(err)
		return
	}
	c.mu.Lock()
	c.objects = resp.Objects
	c.primaries = resp.Primaries
	c.replicas = resp.Replicas
	c.mu.Unlock()
	c.noteSuccess()
}

// fetchShardz reads and validates one /shardz snapshot.
func (c *Client) fetchShardz(ctx context.Context) (*ShardzResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.Addr+PathShardz, nil)
	if err != nil {
		return nil, err
	}
	payload, err := c.roundTrip(req, PathShardz, nil)
	if err != nil {
		return nil, err
	}
	var resp ShardzResponse
	if err := decodeStrict(payload, &resp); err != nil {
		return nil, fmt.Errorf("%w: %s%s: %v", shard.ErrBadResponse, c.cfg.Addr, PathShardz, err)
	}
	if err := checkShardz(&resp, c.cfg.Objects); err != nil {
		return nil, err
	}
	if err := checkStamp(resp.Stamp, c.cfg.Stamp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// remoteBounds is a paused bound phase living on the worker, addressed
// by its handle.
type remoteBounds struct {
	c    *Client
	resp BoundResponse
	k    int
}

func (b *remoteBounds) TopLBs() []core.Scored  { return b.resp.TopLBs }
func (b *remoteBounds) MaxUB() int             { return b.resp.MaxUB }
func (b *remoteBounds) Stats() core.PhaseStats { return b.resp.Stats }

// Complete resumes the worker-side verification against floor. The
// response passes the same validation gauntlet as the bound response.
func (b *remoteBounds) Complete(ctx context.Context, floor int) (*core.Result, error) {
	payload, err := b.c.post(ctx, PathComplete, CompleteRequest{Handle: b.resp.Handle, Floor: floor})
	if err != nil {
		b.c.noteFailure(err)
		return nil, err
	}
	var resp CompleteResponse
	if err := decodeStrict(payload, &resp); err != nil {
		err = fmt.Errorf("%w: %s: %v", shard.ErrBadResponse, b.c.cfg.Addr, err)
		b.c.noteFailure(err)
		return nil, err
	}
	if err := checkCompleteResponse(&resp, b.c.cfg.Stamp, b.k, b.c.cfg.Objects); err != nil {
		b.c.noteFailure(err)
		return nil, err
	}
	b.c.noteSuccess()
	res := &core.Result{TopK: resp.TopK, Stats: resp.Stats}
	if len(res.TopK) > 0 {
		res.Best = res.TopK[0]
	}
	return res, nil
}

// Release abandons the worker-side handle (Client.release).
func (b *remoteBounds) Release() { b.c.release(b.resp.Handle) }
