package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"mio/internal/core"
	"mio/internal/durable"
	"mio/internal/fault"
	"mio/internal/shard"
)

// The client's transport policy:
//   - responses are read up to maxResponseBytes: real ones are a few KB
//     (TopLBs and TopK hold at most k entries, stats are fixed-size), so
//     the cap only stops a hostile or broken worker from ballooning the
//     coordinator's memory;
//   - releaseTimeout bounds the best-effort release round trip a pruned
//     shard's bounds fire off-path.
//
// The client keeps no liveness state of its own: every failed exchange
// comes back as the attempt's error, and the coordinator's per-shard
// breaker is the one signal that decides whether the worker is tried.
const (
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
	http   *http.Client
	closed atomic.Bool
}

// NewClient builds a client for one worker. It starts no goroutine and
// makes no request until the coordinator's first attempt.
func NewClient(cfg ClientConfig) *Client {
	return &Client{cfg: cfg, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

// Close closes the transport's idle keep-alive connections, so neither
// the client nor the worker keeps one for it. Idempotent; in-flight
// calls finish. A request made after Close — the Release of a losing
// attempt the coordinator drains late — closes its connection once
// answered (post); one in flight when Close runs returns its connection
// to the pool, and only the worker's idle timeout (miosrv's is a
// minute) closes that one.
func (c *Client) Close() {
	c.closed.Store(true)
	c.http.CloseIdleConnections()
}

// Info reports the worker's address and expected generation for
// /healthz; the worker's own counts are on its /shardz.
func (c *Client) Info() shard.BackendInfo {
	return shard.BackendInfo{Addr: c.cfg.Addr, Generation: c.cfg.Stamp.Generation}
}

// Bound runs the worker's bound phase. Every call is a round trip: a
// stale stamp, a hostile body or an unreachable worker fails this
// attempt only, and the coordinator's breaker decides about the next.
func (c *Client) Bound(ctx context.Context, r float64, k int) (shard.Bounds, error) {
	payload, err := c.post(ctx, PathBound, BoundRequest{R: r, K: k})
	if err != nil {
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
		return nil, fmt.Errorf("%w: %s: %v", shard.ErrBadResponse, c.cfg.Addr, err)
	}
	if err := checkBoundResponse(&resp, c.cfg.Stamp, k, c.cfg.Objects); err != nil {
		c.release(resp.Handle)
		return nil, err
	}
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

// post sends a strict-JSON request and returns the envelope payload of
// a 200 response. Network failures, oversized bodies and corrupt
// envelopes (both ErrBadResponse) and non-200 statuses (a *statusError;
// a 400 also core.ErrInvalidQuery) all come back as errors; the
// injected net_send and net_recv points fail the exchange at the
// respective boundary.
func (c *Client) post(ctx context.Context, path string, body any) ([]byte, error) {
	where := c.cfg.Addr + path
	if err := c.cfg.Faults.Fire(fault.PointNetSend); err != nil {
		return nil, fmt.Errorf("%s: send: %w", where, err)
	}
	reqBody, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, where, bytes.NewReader(reqBody))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Close = c.closed.Load() // a closed client pools no connection
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", where, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%s: read: %w", where, err)
	}
	if err := c.cfg.Faults.Fire(fault.PointNetRecv); err != nil {
		return nil, fmt.Errorf("%s: recv: %w", where, err)
	}
	if len(data) > maxResponseBytes {
		return nil, fmt.Errorf("%w: %s: response exceeds %d bytes", shard.ErrBadResponse, where, maxResponseBytes)
	}
	if resp.StatusCode != http.StatusOK {
		var we wireError
		_ = json.Unmarshal(data, &we) // a body that is no wireError leaves msg empty
		err := &statusError{where: where, code: resp.StatusCode, msg: we.Error}
		if resp.StatusCode == http.StatusBadRequest {
			// The worker is alive and turned the request itself down.
			return nil, fmt.Errorf("%w: %w", core.ErrInvalidQuery, err)
		}
		return nil, err
	}
	payload, err := durable.Open(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", shard.ErrBadResponse, where, err)
	}
	return payload, nil
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
		return nil, err
	}
	var resp CompleteResponse
	if err := decodeStrict(payload, &resp); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", shard.ErrBadResponse, b.c.cfg.Addr, err)
	}
	if err := checkCompleteResponse(&resp, b.c.cfg.Stamp, b.k, b.c.cfg.Objects); err != nil {
		return nil, err
	}
	res := &core.Result{TopK: resp.TopK, Stats: resp.Stats}
	if len(res.TopK) > 0 {
		res.Best = res.TopK[0]
	}
	return res, nil
}

// Release abandons the worker-side handle (Client.release).
func (b *remoteBounds) Release() { b.c.release(b.resp.Handle) }
