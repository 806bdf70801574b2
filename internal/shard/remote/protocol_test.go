package remote

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mio/internal/core"
	"mio/internal/data"
	"mio/internal/durable"
	"mio/internal/shard"
)

func uniformDS(n int, seed int64) *data.Dataset {
	return data.GenUniform(data.UniformConfig{N: n, M: 6, FieldSize: 40, Spread: 5, Seed: seed})
}

// TestFingerprintDeterminism: identical content hashes identically
// regardless of how it was built; any content or shape change moves
// the generation.
func TestFingerprintDeterminism(t *testing.T) {
	a, b := uniformDS(60, 3), uniformDS(60, 3)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical datasets produced different fingerprints")
	}
	if Fingerprint(a) == Fingerprint(uniformDS(60, 4)) {
		t.Fatal("different datasets produced the same fingerprint")
	}
	if Fingerprint(a) == Fingerprint(uniformDS(61, 3)) {
		t.Fatal("different sizes produced the same fingerprint")
	}
	fp := Fingerprint(a)
	if Generation(fp, 2, 8) == Generation(fp, 3, 8) {
		t.Fatal("different shard counts produced the same generation")
	}
	if Generation(fp, 2, 8) == Generation(fp, 2, 10) {
		t.Fatal("different replica horizons produced the same generation")
	}
	// Moving one coordinate by one ULP must move the fingerprint: the
	// guard is content-exact, not approximate.
	c := uniformDS(60, 3)
	c.Objects[10].Pts[0].X += 1e-12
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("coordinate perturbation did not move the fingerprint")
	}
}

// TestDecodeStrict: unknown fields and trailing garbage are rejected,
// exact payloads round-trip.
func TestDecodeStrict(t *testing.T) {
	var br BoundRequest
	if err := decodeStrict([]byte(`{"r":2,"k":3}`), &br); err != nil {
		t.Fatalf("exact payload rejected: %v", err)
	}
	if err := decodeStrict([]byte(`{"r":2,"k":3,"extra":1}`), &br); err == nil {
		t.Fatal("unknown field accepted")
	}
	if err := decodeStrict([]byte(`{"r":2,"k":3}{"r":1,"k":1}`), &br); err == nil {
		t.Fatal("trailing JSON accepted")
	}
	if err := decodeStrict([]byte(`{"r":2,"k":3} garbage`), &br); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestCheckScoredList walks the validation table: out-of-range ids and
// scores, duplicates, and canonical-order violations must all be
// rejected as ErrBadResponse.
func TestCheckScoredList(t *testing.T) {
	n := 100
	cases := []struct {
		name string
		list []core.Scored
		ok   bool
	}{
		{"empty", nil, true},
		{"sorted", []core.Scored{{Obj: 5, Score: 9}, {Obj: 2, Score: 7}, {Obj: 9, Score: 7}}, true},
		{"negative id", []core.Scored{{Obj: -1, Score: 3}}, false},
		{"id at n", []core.Scored{{Obj: 100, Score: 3}}, false},
		{"negative score", []core.Scored{{Obj: 1, Score: -2}}, false},
		{"score above n-1", []core.Scored{{Obj: 1, Score: 100}}, false},
		{"duplicate id", []core.Scored{{Obj: 4, Score: 8}, {Obj: 4, Score: 3}}, false},
		{"score ascending", []core.Scored{{Obj: 1, Score: 3}, {Obj: 2, Score: 5}}, false},
		{"tie order broken", []core.Scored{{Obj: 7, Score: 5}, {Obj: 3, Score: 5}}, false},
	}
	for _, tc := range cases {
		err := checkScoredList("list", tc.list, len(tc.list), n)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			} else if !errors.Is(err, shard.ErrBadResponse) {
				t.Errorf("%s: error is not ErrBadResponse: %v", tc.name, err)
			}
		}
	}
	if err := checkScoredList("list", []core.Scored{{Obj: 1, Score: 3}, {Obj: 2, Score: 2}}, 1, n); err == nil {
		t.Error("over-limit list accepted")
	}
}

// TestCheckBoundResponse: stamp mismatches map to ErrStaleGeneration,
// structural breakage to ErrBadResponse.
func TestCheckBoundResponse(t *testing.T) {
	want := Stamp{Generation: 7, Shard: 1, Shards: 3}
	good := BoundResponse{
		Stamp:  want,
		Handle: 1,
		TopLBs: []core.Scored{{Obj: 3, Score: 4}},
		MaxUB:  9,
	}
	if err := checkBoundResponse(&good, want, 2, 50); err != nil {
		t.Fatalf("good response rejected: %v", err)
	}
	stale := good
	stale.Stamp.Generation = 8
	if err := checkBoundResponse(&stale, want, 2, 50); !errors.Is(err, shard.ErrStaleGeneration) {
		t.Fatalf("wrong generation: got %v, want ErrStaleGeneration", err)
	}
	slot := good
	slot.Stamp.Shard = 2
	if err := checkBoundResponse(&slot, want, 2, 50); !errors.Is(err, shard.ErrStaleGeneration) {
		t.Fatalf("wrong shard slot: got %v, want ErrStaleGeneration", err)
	}
	badUB := good
	badUB.MaxUB = 50
	if err := checkBoundResponse(&badUB, want, 2, 50); !errors.Is(err, shard.ErrBadResponse) {
		t.Fatalf("max_ub out of range: got %v, want ErrBadResponse", err)
	}
	lbOverUB := good
	lbOverUB.MaxUB = 3
	if err := checkBoundResponse(&lbOverUB, want, 2, 50); !errors.Is(err, shard.ErrBadResponse) {
		t.Fatalf("lower bound above max_ub: got %v, want ErrBadResponse", err)
	}
	negStats := good
	negStats.Stats.Candidates = -1
	if err := checkBoundResponse(&negStats, want, 2, 50); !errors.Is(err, shard.ErrBadResponse) {
		t.Fatalf("negative stats: got %v, want ErrBadResponse", err)
	}
}

// FuzzRemoteShardResponse is the hostile-payload gate: whatever bytes
// a worker answers with, the client must either return a fully
// validated bounds object or an error — never panic, never hand
// unvalidated data to the merge.
func FuzzRemoteShardResponse(f *testing.F) {
	// Seeds: a well-formed response, truncations, corruptions, stale
	// stamps, bare JSON without an envelope, deep garbage.
	good, _ := json.Marshal(BoundResponse{
		Stamp:  Stamp{Generation: 42, Shard: 0, Shards: 2},
		Handle: 1,
		TopLBs: []core.Scored{{Obj: 3, Score: 5}},
		MaxUB:  9,
	})
	sealed := durable.Seal(good)
	f.Add(sealed)
	f.Add(sealed[:len(sealed)-3])
	f.Add(sealed[:durable.EnvelopeOverhead/2])
	corrupt := append([]byte(nil), sealed...)
	corrupt[durable.EnvelopeOverhead] ^= 0x40
	f.Add(corrupt)
	stale, _ := json.Marshal(BoundResponse{Stamp: Stamp{Generation: 41, Shard: 0, Shards: 2}})
	f.Add(durable.Seal(stale))
	f.Add(good) // JSON without an envelope
	f.Add([]byte(`{"error":"boom"}`))
	f.Add([]byte{})
	f.Add(durable.Seal([]byte(`{"stamp":{"generation":42,"shard":0,"shards":2},"handle":1,"top_lbs":[{"obj":-5,"score":2}],"max_ub":3,"stats":{}}`)))

	// One shared server and client across all executions: the server
	// answers every request with the current fuzz input. The client
	// keeps no liveness state, so every input is parsed, whatever the
	// ones before it were.
	var mu sync.Mutex
	var body []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		b := body
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
	}))
	c := NewClient(ClientConfig{
		Addr:    srv.URL,
		Stamp:   Stamp{Generation: 42, Shard: 0, Shards: 2},
		Objects: 100,
	})
	f.Cleanup(func() { c.Close(); srv.Close() })

	f.Fuzz(func(t *testing.T, in []byte) {
		mu.Lock()
		body = append([]byte(nil), in...) // a fresh array: the handler writes its copy of the slice after unlocking
		mu.Unlock()
		b, err := c.Bound(context.Background(), 2, 3)
		if err != nil {
			if b != nil {
				t.Fatal("error AND bounds returned")
			}
			return
		}
		// Anything accepted must have survived full validation.
		resp := BoundResponse{
			Stamp:  Stamp{Generation: 42, Shard: 0, Shards: 2},
			Handle: b.(*remoteBounds).resp.Handle,
			TopLBs: b.TopLBs(),
			MaxUB:  b.MaxUB(),
			Stats:  b.Stats(),
		}
		if verr := checkBoundResponse(&resp, Stamp{Generation: 42, Shard: 0, Shards: 2}, 3, 100); verr != nil {
			t.Fatalf("accepted response fails validation: %v", verr)
		}
	})
}
