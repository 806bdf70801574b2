package bench

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mio/internal/core"
	"mio/internal/data"
	"mio/internal/shard"
)

var update = flag.Bool("update", false, "rewrite testdata/workcounts.json from this run instead of comparing against it")

const (
	workCountsScale = 0.15
	scatterShards   = 4
)

var workCountsRs = []float64{6, 8}

// workCounts is the golden file: record name → counter → exact value.
type workCounts map[string]map[string]int

// TestWorkCounts pins the pipeline's deterministic work counters on
// Bird and Neuron by exact equality: one serial top-1 query per r, in
// order on one engine, so the r = 8 query reads the scores the r = 6
// one recorded (EngineQuery; Verification repeats its dist_comps under
// the name the phase had in the old snapshots), and one healthy
// 4-shard scatter–gather (Scatter).
// The counters do not depend on the host, GOMAXPROCS or the worker and
// partition options (core's TestKnobParity), so a change in either
// direction is an algorithmic change and has to arrive as a reviewed
// diff of the golden file:
//
//	go test ./internal/bench -run WorkCounts -update
func TestWorkCounts(t *testing.T) {
	sets := data.Standard(workCountsScale)
	got := workCounts{}
	for _, name := range []string{"Bird", "Neuron"} {
		measureWorkCounts(t, got, name, sets[name])
	}

	path := filepath.Join("testdata", "workcounts.json")
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := workCounts{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	for name, w := range want {
		if !reflect.DeepEqual(got[name], w) {
			t.Errorf("%s: got %v, golden %v", name, got[name], w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: measured but not in %s", name, path)
		}
	}
	t.Log("if the change is intended, re-baseline with -update and commit the diff")
}

func measureWorkCounts(t *testing.T, out workCounts, name string, ds *data.Dataset) {
	t.Helper()
	eng, err := core.NewEngine(ds, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range workCountsRs {
		res, err := eng.RunTopK(r, 1)
		if err != nil {
			t.Fatalf("%s r=%g: %v", name, r, err)
		}
		out[fmt.Sprintf("EngineQuery/%s/r=%g", name, r)] = map[string]int{
			"dist_comps": res.Stats.DistanceComps,
			"candidates": res.Stats.Candidates,
			"verified":   res.Stats.Verified,
		}
		out[fmt.Sprintf("Verification/%s/r=%g", name, r)] = map[string]int{
			"dist_comps": res.Stats.DistanceComps,
		}
	}
	r := workCountsRs[0]

	// Healthy in-process cluster, hedging off (a hedge doubles a
	// shard's work whenever the host is slow). dist_comps sums the
	// per-shard counters: each shard verifies its own candidates down
	// to the merged floor, so it exceeds the solo count by design.
	coord, err := shard.New(ds, core.Options{Workers: 1},
		shard.Config{Shards: scatterShards, MaxR: math.Ceil(r) + 1, HedgeAfter: -1})
	if err != nil {
		t.Fatalf("%s scatter: %v", name, err)
	}
	defer coord.Close()
	res, rep, err := coord.Query(context.Background(), r, 1)
	if err != nil {
		t.Fatalf("%s scatter r=%g: %v", name, r, err)
	}
	if res.Degraded {
		t.Fatalf("%s scatter r=%g: degraded answer on a healthy cluster", name, r)
	}
	out[fmt.Sprintf("Scatter/%s/shards=%d", name, scatterShards)] = map[string]int{
		"dist_comps":    res.Stats.DistanceComps,
		"verified":      res.Stats.Verified,
		"pruned_shards": rep.Pruned,
	}
}
