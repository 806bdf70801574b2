package remote_test

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mio/internal/core"
	"mio/internal/data"
	"mio/internal/server"
	"mio/internal/shard"
	"mio/internal/shard/remote"
)

// The chaos cluster serves `-gen uniform -scale 0.2 -seed 7`; this is
// the identical dataset the test's in-process oracle and coordinator
// build, exercising the content-fingerprint generation guard across
// real process boundaries.
const (
	chaosScale = 0.2
	chaosSeed  = 7
)

func chaosDataset(t *testing.T) *data.Dataset {
	ds, err := data.ByName("uniform", chaosScale, 0, 0, chaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func buildMiosrv(t *testing.T) string {
	t.Helper()
	bin := t.TempDir() + "/miosrv"
	out, err := exec.Command("go", "build", "-o", bin, "mio/cmd/miosrv").CombinedOutput()
	if err != nil {
		t.Fatalf("building miosrv: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// workerProc is one real miosrv -shard-serve process.
type workerProc struct {
	cmd  *exec.Cmd
	addr string
}

func (p *workerProc) kill() {
	if p.cmd != nil && p.cmd.Process != nil {
		_ = p.cmd.Process.Kill() // SIGKILL: no graceful shutdown
		_, _ = p.cmd.Process.Wait()
		p.cmd = nil
	}
}

// startWorkerProc spawns worker idx of 3 on addr and waits until its
// /shardz endpoint answers.
func startWorkerProc(t *testing.T, bin string, idx int, addr string, extra ...string) *workerProc {
	t.Helper()
	args := []string{
		"-gen", "uniform", "-scale", fmt.Sprint(chaosScale), "-seed", fmt.Sprint(chaosSeed),
		"-shards", "3", "-shard-serve", "-shard-index", strconv.Itoa(idx),
		"-addr", addr,
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker %d: %v", idx, err)
	}
	p := &workerProc{cmd: cmd, addr: addr}
	t.Cleanup(p.kill)

	url := "http://" + addr + remote.PathShardz
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("worker %d on %s never became reachable", idx, addr)
	return nil
}

// killGate fronts one worker for the coordinator. Once armed, it holds
// the first bound request that arrives (and any that follow it) until
// released, and closes arrived when it does: the test kills the worker
// in between, so the kill lands while a query's request for it is in
// flight. Held requests then go on to the dead worker and fail.
type killGate struct {
	next     http.Handler
	armed    atomic.Bool
	hold     sync.Once
	arrived  chan struct{}
	released sync.Once
	release  chan struct{}
}

// open lets the held requests through; it may be called more than once.
func (g *killGate) open() { g.released.Do(func() { close(g.release) }) }

func newKillGate(addr string) *killGate {
	proxy := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: addr})
	proxy.ErrorLog = log.New(io.Discard, "", 0) // a dead worker's 502s are expected
	return &killGate{next: proxy, arrived: make(chan struct{}), release: make(chan struct{})}
}

func (g *killGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == remote.PathBound && g.armed.Load() {
		g.hold.Do(func() {
			close(g.arrived)
			<-g.release
		})
	}
	g.next.ServeHTTP(w, r)
}

type chaosQueryResponse struct {
	Sharded bool          `json:"sharded"`
	Scatter *shard.Report `json:"scatter"`
	Result  *core.Result  `json:"result"`
}

// chaosQuery issues one /v1/query and requires a 200 with a parseable,
// internally consistent body — under every failure mode in this test,
// anything else is a bug.
func chaosQuery(t *testing.T, base string, r float64, k int) *chaosQueryResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/query?r=%g&k=%d", base, r, k))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("query read: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query answered %d, want 200 under every failure mode: %s", resp.StatusCode, body)
	}
	var qr chaosQueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("query body: %v\n%s", err, body)
	}
	if qr.Result == nil {
		t.Fatalf("query body has no result: %s", body)
	}
	if qr.Result.Degraded && qr.Result.Interval == nil {
		t.Fatalf("degraded result without certified interval: %s", body)
	}
	return &qr
}

func chaosHealth(t *testing.T, base string) []shard.Health {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Shards []shard.Health `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return h.Shards
}

// TestMultiProcessChaos is the acceptance chaos run: three real worker
// processes behind an in-process (race-instrumented) coordinator. One
// worker is SIGKILLed mid-scatter, another is restarted with armed
// envelope-corruption faults, and the coordinator must keep answering
// every query with a 200 — exact on a healthy cluster, a certified
// interval containing the oracle score otherwise — then return to
// exact answers once the workers come back.
func TestMultiProcessChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test (spawns real worker processes)")
	}
	bin := buildMiosrv(t)
	ds := chaosDataset(t)

	addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	workers := make([]*workerProc, 3)
	for i := range workers {
		workers[i] = startWorkerProc(t, bin, i, addrs[i])
	}

	// Worker 1 is reached through a gate, which times phase 2's kill.
	gate := newKillGate(addrs[1])
	gateSrv := httptest.NewServer(gate)
	t.Cleanup(gateSrv.Close)
	t.Cleanup(gate.open) // runs first: Close waits for held requests

	srv, err := server.New(ds, core.Options{}, server.Config{
		MaxInFlight:     4,
		DisableCache:    true, // cached answers would mask degradation
		DisableCoalesce: true,
		ShardAddrs:      []string{"http://" + addrs[0], gateSrv.URL, "http://" + addrs[2]},
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Drain() })

	oracle := func(r float64, k int) *core.Result {
		e, err := core.NewEngine(ds, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunTopK(r, k)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantBest := oracle(3, 3).Best

	checkInterval := func(qr *chaosQueryResponse) {
		t.Helper()
		if !qr.Result.Degraded {
			return
		}
		iv := qr.Result.Interval
		if iv.LB > wantBest.Score || wantBest.Score > iv.UB {
			t.Fatalf("certified interval [%d,%d] does not contain oracle score %d", iv.LB, iv.UB, wantBest.Score)
		}
	}

	// Phase 1 — healthy cluster: every answer is exact and matches the
	// single-engine oracle.
	for _, rk := range []struct {
		r float64
		k int
	}{{2, 1}, {3, 3}, {4, 5}} {
		want := oracle(rk.r, rk.k)
		qr := chaosQuery(t, ts.URL, rk.r, rk.k)
		if !qr.Sharded {
			t.Fatalf("r=%g k=%d: query did not take the sharded path", rk.r, rk.k)
		}
		if qr.Result.Degraded {
			t.Fatalf("r=%g k=%d: healthy cluster degraded: %+v", rk.r, rk.k, qr.Scatter)
		}
		if qr.Result.Best != want.Best || len(qr.Result.TopK) != len(want.TopK) {
			t.Fatalf("r=%g k=%d: answer %+v diverges from oracle %+v", rk.r, rk.k, qr.Result.Best, want.Best)
		}
		for i := range want.TopK {
			if qr.Result.TopK[i] != want.TopK[i] {
				t.Fatalf("r=%g k=%d: TopK[%d] = %+v, oracle %+v", rk.r, rk.k, i, qr.Result.TopK[i], want.TopK[i])
			}
		}
	}

	// Phase 2 — SIGKILL worker 1 mid-scatter, once the gate holds a
	// bound request for it: queries racing the kill must all come back
	// 200, exact or certified.
	gate.armed.Store(true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				checkInterval(chaosQuery(t, ts.URL, 3, 3))
			}
		}()
	}
	select {
	case <-gate.arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("no bound request reached worker 1 during the query burst")
	}
	workers[1].kill()
	gate.open()
	wg.Wait()

	// Phase 3 — steady state with a dead worker: still 200, now
	// degraded with a certified interval, and /healthz reports the
	// shard down. Its breaker is the one liveness signal and learns
	// only from query attempts, so the wait for down keeps querying.
	deadline := time.Now().Add(10 * time.Second)
	for {
		qr := chaosQuery(t, ts.URL, 3, 3)
		checkInterval(qr)
		if qr.Result.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queries never degraded after worker 1 was killed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		checkInterval(chaosQuery(t, ts.URL, 3, 3))
		hs := chaosHealth(t, ts.URL)
		if len(hs) == 3 && hs[1].State == shard.ProbeDown && hs[1].Addr != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never marked worker 1 down: %+v", hs)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Phase 4 — flap worker 2: restart it with envelope corruption
	// armed on half its responses. With one worker dead and one
	// flapping, every query must still answer 200 with a certified
	// interval whenever it cannot be exact.
	workers[2].kill()
	workers[2] = startWorkerProc(t, bin, 2, addrs[2],
		"-faults", "seed=3;"+"shard.net_corrupt=error:0.5")
	for i := 0; i < 12; i++ {
		checkInterval(chaosQuery(t, ts.URL, 3, 3))
	}

	// Phase 5 — recovery: bring workers 1 and 2 back clean. The same
	// generation stamp lets them rejoin, and answers return to exact
	// oracle parity (the dead shard's breaker needs its cooldown to
	// half-open, so allow generous time).
	workers[2].kill()
	workers[1] = startWorkerProc(t, bin, 1, addrs[1])
	workers[2] = startWorkerProc(t, bin, 2, addrs[2])
	want := oracle(3, 3)
	deadline = time.Now().Add(20 * time.Second)
	for {
		qr := chaosQuery(t, ts.URL, 3, 3)
		checkInterval(qr)
		if !qr.Result.Degraded {
			if qr.Result.Best != want.Best {
				t.Fatalf("recovered answer %+v diverges from oracle %+v", qr.Result.Best, want.Best)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never recovered to exact answers: %+v", qr.Scatter)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
