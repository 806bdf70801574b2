package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mio"
	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/server"
)

// env is one set-up instance of a workload: the loaded dataset and,
// for a served workload, the server on its loopback listener.
type env struct {
	w    *workload
	ds   *data.Dataset
	rec  *recorder // nil unless the run is traced
	base string    // http://127.0.0.1:port
	http *http.Client
	srv  *http.Server
	done chan struct{} // closed when srv.Serve has returned
}

// setupTimes is what one set-up cost.
type setupTimes struct {
	totalS float64 // load + construction + warm-up
	loadMs float64 // mio.LoadDataset alone
}

// setup loads the dataset file, builds the program and warms it up;
// when it returns the first timed query may be sent. cfg overrides the
// workload's server configuration (the solo replay of the sharded
// workload uses that).
func setup(w *workload, cfg server.Config, file string, rec *recorder) (*env, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	ds, err := mio.LoadDataset(file)
	if err != nil {
		return nil, st, fmt.Errorf("loading %s: %w", file, err)
	}
	st.loadMs = msSince(start)
	e := &env{w: w, ds: ds, rec: rec}
	if !w.served {
		// One untimed query pages the code and the heap in; there is no
		// cross-query state to warm.
		eng, err := mio.NewEngine(ds)
		if err != nil {
			return nil, st, err
		}
		if _, err := eng.QueryTopK((w.rLo+w.rHi)/2, 1); err != nil {
			return nil, st, err
		}
		st.totalS = time.Since(start).Seconds()
		return e, st, nil
	}
	var opts core.Options
	if w.labels {
		opts.Labels = labelstore.NewStore()
	}
	s, err := server.New(ds, opts, cfg)
	if err != nil {
		return nil, st, err
	}
	handler := s.Handler()
	if rec != nil {
		handler = rec.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, st, err
	}
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: handler}
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		// Serve returns ErrServerClosed after Shutdown; a listener
		// failure surfaces as failed requests.
		_ = e.srv.Serve(ln)
	}()
	e.http = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: w.clients, MaxConnsPerHost: w.clients,
	}}
	c := newClient(e)
	for _, q := range w.warmup() {
		c.do(-1, q, false)
	}
	if c.failed > 0 {
		e.close()
		return nil, st, fmt.Errorf("warm-up failed: %v", c.reasons)
	}
	st.totalS = time.Since(start).Seconds()
	return e, st, nil
}

// close stops the server and waits until it has.
func (e *env) close() {
	if e.srv == nil {
		return
	}
	e.http.CloseIdleConnections()
	// With idle connections closed and no request in flight Shutdown
	// has nothing to wait for; its error could only be ctx's.
	_ = e.srv.Shutdown(context.Background())
	<-e.done
}

var processStart = time.Now()

// ms is d in milliseconds, with the nanoseconds kept.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// wireResponse is the part of the /v1/query JSON the harness reads.
type wireResponse struct {
	Cached  bool `json:"cached"`
	Scatter *struct {
		Pruned  int `json:"pruned"`
		Failed  int `json:"failed"`
		Hedges  int `json:"hedges"`
		Retries int `json:"retries"`
	} `json:"scatter"`
	Result *mio.Result `json:"result"`
}

// detail is what the harness keeps of a response it decoded. A cached
// reply repeats the stats of the run that filled the cache, so layer
// metrics read only details with cached == false.
type detail struct {
	idx     int
	cached  bool
	latMs   float64
	buildMs float64 // one-shot: mio.NewEngine
	callMs  float64 // one-shot: QueryTopK
	stats   mio.PhaseStats
	pruned  int // sharded: shards skipped by the floor
	downs   int // sharded: shards that failed or were late
	hedges  int
	retries int
}

// lat is one completed request.
type lat struct {
	ms     float64
	atS    float32 // completion time, seconds since the harness started
	idx    int32
	traced bool
	cached bool
}

type memoEntry struct {
	body   []byte
	cached bool
	ans    *answer
}

// client is one closed-loop caller. It is used by one goroutine.
type client struct {
	e       *env
	buf     bytes.Buffer
	memo    map[string]*memoEntry
	lats    []lat
	details []detail
	answers []*answer
	sent    int
	failed  int
	reasons []string
}

func newClient(e *env) *client {
	return &client{e: e, memo: make(map[string]*memoEntry)}
}

func (c *client) fail(i int, q query, err error) {
	c.failed++
	if len(c.reasons) < 5 {
		c.reasons = append(c.reasons, fmt.Sprintf("query %d (r=%v k=%d): %v", i, q.R, q.K, err))
	}
}

// record keeps the latency of a completed request, or of every
// latEvery-th one.
func (c *client) record(l lat) {
	if int(l.idx)%c.e.w.latEvery == 0 {
		l.atS = float32(time.Since(processStart).Seconds())
		c.lats = append(c.lats, l)
	}
}

// do sends query i and records the outcome.
func (c *client) do(i int, q query, traced bool) {
	c.sent++
	if c.e.w.served {
		c.doHTTP(i, q, traced)
	} else {
		c.doOneShot(i, q, traced)
	}
}

// doOneShot is the paper's online setting and what cmd/mio does: build
// an engine over the resident dataset, ask once, drop it.
func (c *client) doOneShot(i int, q query, traced bool) {
	t0 := time.Now()
	eng, err := mio.NewEngine(c.e.ds)
	if err != nil {
		c.fail(i, q, err)
		return
	}
	t1 := time.Now()
	res, err := eng.QueryTopK(q.R, q.K)
	t2 := time.Now()
	if err != nil {
		c.fail(i, q, err)
		return
	}
	if traced {
		id, st := int64(i), res.Stats
		c.e.rec.add(id, slotQuery, 0, "core.query", t0, t2)
		c.e.rec.add(id, slotBuild, slotQuery, "core.engine_build", t0, t1)
		c.e.rec.add(id, slotCall, slotQuery, "core.query_call", t1, t2)
		c.e.rec.addPhases(id, slotCall, t1, [5]time.Duration{
			st.LabelInput, st.GridMapping, st.LowerBounding, st.UpperBounding, st.Verification})
	}
	total := ms(t2.Sub(t0))
	c.record(lat{idx: int32(i), traced: traced, ms: total})
	c.details = append(c.details, detail{
		idx: i, latMs: total, stats: res.Stats,
		buildMs: ms(t1.Sub(t0)), callMs: ms(t2.Sub(t1)),
	})
	c.answers = append(c.answers, &answer{idx: i, q: q, topK: res.TopK, degraded: res.Degraded, count: 1})
}

func (c *client) doHTTP(i int, q query, traced bool) {
	url := c.e.base + "/v1/query?r=" + strconv.FormatFloat(q.R, 'g', 17, 64) + "&k=" + strconv.Itoa(q.K)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		c.fail(i, q, err)
		return
	}
	if traced {
		req.Header.Set(queryHeader, strconv.Itoa(i))
	}
	t0 := time.Now()
	resp, err := c.e.http.Do(req)
	if err != nil {
		c.fail(i, q, err)
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		c.fail(i, q, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		c.fail(i, q, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes())))
		return
	}
	if traced {
		c.e.rec.add(int64(i), slotClient, 0, "client.request", t0, t1)
	}
	total := ms(t1.Sub(t0))
	// A reply byte-identical to one already decoded for this key is the
	// same answer: on the hot workload that spares 150 000 decodes,
	// which would otherwise compete with the server for the two cores.
	key := q.key()
	if m, ok := c.memo[key]; ok && bytes.Equal(m.body, c.buf.Bytes()) {
		m.ans.count++
		c.record(lat{idx: int32(i), traced: traced, cached: m.cached, ms: total})
		return
	}
	var wr wireResponse
	if err := json.Unmarshal(c.buf.Bytes(), &wr); err != nil || wr.Result == nil {
		c.fail(i, q, fmt.Errorf("undecodable reply (%v): %s", err, bytes.TrimSpace(c.buf.Bytes())))
		return
	}
	d := detail{idx: i, cached: wr.Cached, latMs: total, stats: wr.Result.Stats}
	if s := wr.Scatter; s != nil {
		d.pruned, d.downs, d.hedges, d.retries = s.Pruned, s.Failed, s.Hedges, s.Retries
	}
	if traced && !wr.Cached {
		st := wr.Result.Stats
		c.e.rec.addPhases(int64(i), slotHandler, t0, [5]time.Duration{
			st.LabelInput, st.GridMapping, st.LowerBounding, st.UpperBounding, st.Verification})
	}
	a := &answer{idx: i, q: q, topK: wr.Result.TopK, degraded: wr.Result.Degraded, count: 1}
	c.record(lat{idx: int32(i), traced: traced, cached: wr.Cached, ms: total})
	c.details = append(c.details, d)
	c.answers = append(c.answers, a)
	if c.e.w.hot != nil {
		c.memo[key] = &memoEntry{body: append([]byte(nil), c.buf.Bytes()...), cached: wr.Cached, ans: a}
	}
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	wallS   float64
	sent    int
	failed  int
	reasons []string
	lats    []lat
	details []detail
	answers []*answer
}

// runPhase drives the stream with the workload's client count. Clients
// share one index counter, so query i is sent exactly once; the phase
// ends when the deadline has passed and at least minQueries queries
// have been sent. traced says which queries carry spans.
func runPhase(e *env, clients int, stream func(int) query, deadline time.Time, minQueries int, traced func(i int) bool) *phase {
	var next atomic.Int64
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(e)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= minQueries && !time.Now().Before(deadline) {
					return
				}
				c.do(i, stream(i), traced(i))
			}
		}(c)
	}
	wg.Wait()
	p := &phase{wallS: time.Since(start).Seconds()}
	for _, c := range cs {
		p.sent += c.sent
		p.failed += c.failed
		p.reasons = append(p.reasons, c.reasons...)
		p.lats = append(p.lats, c.lats...)
		p.details = append(p.details, c.details...)
		p.answers = append(p.answers, c.answers...)
	}
	return p
}

func untraced(int) bool { return false }

// memSampler tracks the peak of the memory the process holds from the
// operating system (total mapped minus what the runtime has returned)
// at 20 Hz.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		if held := samples[0].Value.Uint64() - samples[1].Value.Uint64(); held > m.peak {
			m.peak = held
		}
	}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-m.stop:
				read()
				return
			}
		}
	}()
	return m
}

// peakMB stops the sampler and returns the peak.
func (m *memSampler) peakMB() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak) / 1e6
}
