package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mio/internal/core"
	"mio/internal/data"
	"mio/internal/durable"
	"mio/internal/fault"
)

// openTestState opens a DurableState over dir and commits ds as its
// first generation, returning the state and the generation's store.
func openTestState(t *testing.T, dir string, ds *data.Dataset, dio durable.IO) (*DurableState, *core.Options) {
	t.Helper()
	st, err := OpenState(dir, dio)
	if err != nil {
		t.Fatal(err)
	}
	store, gen, err := st.CommitDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("first commit produced generation %d", gen)
	}
	return st, &core.Options{Labels: store}
}

// TestStateWarmRestart is the headline acceptance test: a server that
// computed labels, "crashed" and restarted from its state directory
// serves the same exact answers with UsedLabels=true on the very
// first query.
func TestStateWarmRestart(t *testing.T) {
	root := t.TempDir()
	ds := testDataset(60, 3)
	st, opts := openTestState(t, root, ds, durable.IO{})

	s, err := New(ds, *opts, Config{State: st})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// r=4.5 and r=5 share ⌈r⌉=5: the first computes and persists the
	// label set, the second is the oracle the restarted server must
	// reproduce.
	var warmup, oracle queryResponse
	if rec := get(t, h, "/v1/query?r=4.5&k=3", &warmup); rec.Code != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", rec.Code, rec.Body.String())
	}
	if warmup.Result.Stats.UsedLabels {
		t.Fatal("first query of a fresh generation reused labels")
	}
	if rec := get(t, h, "/v1/query?r=5&k=3", &oracle); rec.Code != http.StatusOK {
		t.Fatalf("oracle: status %d: %s", rec.Code, rec.Body.String())
	}
	if !oracle.Result.Stats.UsedLabels {
		t.Fatal("second query with the same ⌈r⌉ did not reuse labels")
	}

	// "Crash": drop every in-process handle and recover from disk.
	st2, err := OpenState(root, durable.IO{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Generation != 1 {
		t.Fatalf("recovered %+v, want generation 1", rec)
	}
	if rec.Dataset.N() != ds.N() || rec.Dataset.TotalPoints() != ds.TotalPoints() {
		t.Fatalf("recovered dataset has %d objects / %d points, want %d / %d",
			rec.Dataset.N(), rec.Dataset.TotalPoints(), ds.N(), ds.TotalPoints())
	}
	s2, err := New(rec.Dataset, core.Options{Labels: rec.Labels}, Config{State: st2})
	if err != nil {
		t.Fatal(err)
	}
	var after queryResponse
	if r := get(t, s2.Handler(), "/v1/query?r=5&k=3", &after); r.Code != http.StatusOK {
		t.Fatalf("post-restart query: status %d: %s", r.Code, r.Body.String())
	}
	if !after.Result.Stats.UsedLabels {
		t.Fatal("warm restart did not restore the label set (UsedLabels=false)")
	}
	if len(after.Result.TopK) != len(oracle.Result.TopK) {
		t.Fatalf("post-restart top-k size %d, want %d", len(after.Result.TopK), len(oracle.Result.TopK))
	}
	for i := range oracle.Result.TopK {
		if after.Result.TopK[i] != oracle.Result.TopK[i] {
			t.Fatalf("post-restart top-k[%d] = %+v, want %+v", i, after.Result.TopK[i], oracle.Result.TopK[i])
		}
	}
}

// TestStateCrashMatrix drives one injected crash through every IO step
// of a dataset commit and verifies the recovery invariant end to end:
// the reopened state always yields a complete, verified generation —
// the old one if the crash hit before the publish point, the new one
// after — and never a torn mix.
func TestStateCrashMatrix(t *testing.T) {
	old := testDataset(40, 1)
	repl := testDataset(70, 2)
	steps := []struct {
		name    string
		rule    fault.Rule
		wantNew bool
	}{
		{"shortwrite-dataset", fault.Rule{Point: fault.PointIOWrite, Kind: fault.KindShortWrite, P: 1}, false},
		{"error-dataset-write", fault.Rule{Point: fault.PointIOWrite, Kind: fault.KindError, P: 1}, false},
		{"crash-dataset-sync", fault.Rule{Point: fault.PointIOSync, Kind: fault.KindCrash, P: 1}, false},
		{"crash-dataset-rename", fault.Rule{Point: fault.PointIORename, Kind: fault.KindCrash, P: 1}, false},
		// After=1 skips the dataset file's rename: the crash hits the
		// staging-directory rename, after which nothing was published.
		{"crash-stage-rename", fault.Rule{Point: fault.PointIORename, Kind: fault.KindCrash, P: 1, After: 1}, false},
		// After=2 lands on the MANIFEST rename: the generation directory
		// itself is already published, so recovery prefers it even though
		// the manifest still names the old one.
		{"crash-manifest-rename", fault.Rule{Point: fault.PointIORename, Kind: fault.KindCrash, P: 1, After: 2}, false},
		// The final dirsync after the manifest: fully committed.
		{"crash-after-manifest", fault.Rule{Point: fault.PointIODirSync, Kind: fault.KindCrash, P: 1, After: 2}, true},
	}
	for _, tc := range steps {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			openTestState(t, root, old, durable.IO{})
			// Attempt the second commit with the fault armed.
			reg := fault.New(1)
			reg.Arm(tc.rule)
			faulty, err := OpenState(root, durable.IO{Faults: reg})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := faulty.CommitDataset(repl); err == nil {
				t.Fatal("injected commit reported success")
			}

			// "Restart" fault-free.
			re, err := OpenState(root, durable.IO{})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := re.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rec == nil {
				t.Fatal("no generation survived the crash")
			}
			want, wantN := uint64(1), old.N()
			if tc.wantNew {
				want, wantN = 2, repl.N()
			}
			if rec.Generation != want || rec.Dataset.N() != wantN {
				t.Fatalf("recovered generation %d with %d objects, want %d with %d",
					rec.Generation, rec.Dataset.N(), want, wantN)
			}
			// Recover repairs the manifest to name what it serves, so a
			// second restart takes the fast path to the same generation.
			if mGen, ok, _ := re.LastGood(); !ok || mGen != rec.Generation {
				t.Errorf("manifest names %d (ok=%v) after recovery of %d", mGen, ok, rec.Generation)
			}
			// The recovered generation must be servable.
			if _, err := New(rec.Dataset, core.Options{Labels: rec.Labels}, Config{State: re}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStateRecoverSkipsCorruptGeneration: a generation whose dataset
// was damaged at rest is quarantined and recovery falls back to an
// older good one.
func TestStateRecoverSkipsCorruptGeneration(t *testing.T) {
	root := t.TempDir()
	st, _ := openTestState(t, root, testDataset(40, 1), durable.IO{})
	if _, gen, err := st.CommitDataset(testDataset(70, 2)); err != nil || gen != 2 {
		t.Fatalf("second commit: gen %d, %v", gen, err)
	}
	// Flip one payload byte of generation 2's dataset.
	path := filepath.Join(root, "gen-000002", "dataset.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenState(root, durable.IO{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := re.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Generation != 1 || rec.Dataset.N() != 40 {
		t.Fatalf("recovered %+v, want generation 1 with 40 objects", rec)
	}
	if _, err := os.Stat(filepath.Join(root, "gen-000002"+durable.CorruptSuffix)); err != nil {
		t.Errorf("corrupt generation not quarantined: %v", err)
	}
	// A pre-envelope (unverified) dataset smuggled into a generation is
	// equally rejected: generations claim durability, so an unprotected
	// file there means damage.
	if rec2, _ := re.Recover(); rec2 == nil || rec2.Generation != 1 {
		t.Fatalf("second recovery = %+v", rec2)
	}
}

// TestSwapDurableCommitBreaker is the chaos-suite extension: IO faults
// during a swap's durable commit fail the swap, trip the swap circuit
// breaker, and never leave a half-committed generation; once the
// faults clear, a probe swap commits generation 2 and a restart
// recovers it.
func TestSwapDurableCommitBreaker(t *testing.T) {
	root := t.TempDir()
	ds := testDataset(40, 1)
	reg := fault.New(11)
	st, opts := openTestState(t, root, ds, durable.IO{Faults: reg})

	cooldown := 150 * time.Millisecond
	s, err := New(ds, *opts, Config{
		State: st, AllowSwap: true,
		swapBreakThreshold: 2, swapBreakCooldown: cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	replPath := filepath.Join(t.TempDir(), "repl.bin")
	if err := data.SaveFile(replPath, testDataset(70, 2)); err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		body := strings.NewReader(fmt.Sprintf(`{"path": %q}`, replPath))
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/dataset", body))
		return rec
	}

	// Every durable commit fails at the first rename until cleared.
	reg.Arm(fault.Rule{Point: fault.PointIORename, Kind: fault.KindError, P: 1})
	for i := 0; i < 2; i++ {
		if rec := post(); rec.Code != http.StatusBadRequest {
			t.Fatalf("faulted swap %d: status %d, want 400", i, rec.Code)
		}
	}
	if rec := post(); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("swap on open breaker: status %d, want 503", rec.Code)
	}
	if s.Epoch() != 0 || s.Dataset().N() != ds.N() {
		t.Fatalf("failed swaps changed the served dataset (epoch %d)", s.Epoch())
	}
	// No half-committed generation: the only committed generation is 1
	// and the manifest still names it.
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "gen-000001" || e.Name() == "MANIFEST" {
			continue
		}
		if !strings.Contains(e.Name(), ".stage") && !strings.Contains(e.Name(), durable.CorruptSuffix) {
			t.Errorf("unexpected state entry %q after failed swaps", e.Name())
		}
	}
	if gen, ok, _ := st.LastGood(); !ok || gen != 1 {
		t.Fatalf("manifest = %d (ok=%v), want 1", gen, ok)
	}

	// Faults clear; after the cooldown the half-open probe commits.
	reg.Clear(fault.PointIORename)
	time.Sleep(cooldown + 20*time.Millisecond)
	if rec := post(); rec.Code != http.StatusOK {
		t.Fatalf("probe swap: status %d: %s", rec.Code, rec.Body.String())
	}
	if s.Epoch() != 1 || s.Dataset().N() != 70 {
		t.Fatalf("probe swap served epoch %d, %d objects", s.Epoch(), s.Dataset().N())
	}
	re, err := OpenState(root, durable.IO{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := re.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Dataset.N() != 70 {
		t.Fatalf("restart after successful swap recovered %+v, want the 70-object dataset", rec)
	}
}

// TestSwapCommitsLabelsPerGeneration: after a durable swap, label work
// flows into the new generation's directory, so a restart recovers the
// swapped dataset with its own labels warm.
func TestSwapCommitsLabelsPerGeneration(t *testing.T) {
	root := t.TempDir()
	ds := testDataset(40, 1)
	st, opts := openTestState(t, root, ds, durable.IO{})
	s, err := New(ds, *opts, Config{State: st, AllowSwap: true})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	replPath := filepath.Join(t.TempDir(), "repl.bin")
	repl := testDataset(70, 2)
	if err := data.SaveFile(replPath, repl); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/dataset",
		strings.NewReader(fmt.Sprintf(`{"path": %q}`, replPath))))
	if rec.Code != http.StatusOK {
		t.Fatalf("swap: status %d: %s", rec.Code, rec.Body.String())
	}
	// Label the swapped dataset.
	var qr queryResponse
	if r := get(t, h, "/v1/query?r=5&k=2", &qr); r.Code != http.StatusOK {
		t.Fatalf("query: status %d", r.Code)
	}
	if _, err := os.Stat(filepath.Join(root, "gen-000002", "labels", "labels-5.bin")); err != nil {
		t.Fatalf("label set not persisted into generation 2: %v", err)
	}

	// Restart: generation 2 comes back with its labels warm.
	re, err := OpenState(root, durable.IO{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Generation != 2 || got.Dataset.N() != repl.N() {
		t.Fatalf("recovered %+v, want generation 2", got)
	}
	s2, err := New(got.Dataset, core.Options{Labels: got.Labels}, Config{State: re})
	if err != nil {
		t.Fatal(err)
	}
	var after queryResponse
	if r := get(t, s2.Handler(), "/v1/query?r=5&k=2", &after); r.Code != http.StatusOK {
		t.Fatalf("post-restart query: status %d", r.Code)
	}
	if !after.Result.Stats.UsedLabels {
		t.Fatal("restart did not warm the swapped generation's labels")
	}
	if after.Result.Best != qr.Result.Best {
		t.Fatalf("post-restart best %+v, want %+v", after.Result.Best, qr.Result.Best)
	}
}
