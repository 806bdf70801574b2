// Package remote is the multi-process shard transport: an HTTP worker
// that serves one shard's bound/verify entry points, and a hardened
// client implementing shard.Backend so the coordinator drives remote
// workers exactly like in-process engine pools (DESIGN.md §17).
//
// The wire protocol mirrors the split-phase engine API: POST bound
// pauses after upper-bounding and returns a handle; POST complete
// resumes verification against the merged floor; POST release abandons
// a paused query. Every response body — including /shardz — is sealed
// in internal/durable's checksummed envelope, stamped with the worker's
// dataset generation, and strictly validated by the client before
// anything touches the merge.
package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"mio/internal/core"
	"mio/internal/data"
	"mio/internal/shard"
)

// Endpoint paths. The query endpoints are versioned: a coordinator
// speaking v2 must not be silently misunderstood by a v1 worker.
const (
	PathShardz   = "/shardz"
	PathBound    = "/shard/v1/bound"
	PathComplete = "/shard/v1/complete"
	PathRelease  = "/shard/v1/release"
)

// Stamp identifies which dataset generation and partition slot a
// worker is serving. Every response carries one; the client rejects
// any mismatch as shard.ErrStaleGeneration — a restarted worker that
// loaded different data (or the same data under a different partition
// shape) must degrade the shard, never silently merge.
type Stamp struct {
	Generation uint64 `json:"generation"`
	Shard      int    `json:"shard"`
	Shards     int    `json:"shards"`
}

// BoundRequest asks the worker to run the bound phase for (r, k).
type BoundRequest struct {
	R float64 `json:"r"`
	K int     `json:"k"`
}

// BoundResponse is the paused bound phase: certified bounds plus the
// handle that resumes or abandons it. Ids are GLOBAL.
type BoundResponse struct {
	Stamp  Stamp           `json:"stamp"`
	Handle uint64          `json:"handle"`
	TopLBs []core.Scored   `json:"top_lbs"`
	MaxUB  int             `json:"max_ub"`
	Stats  core.PhaseStats `json:"stats"`
}

// CompleteRequest resumes verification of a paused bound phase
// against the coordinator's merged floor.
type CompleteRequest struct {
	Handle uint64 `json:"handle"`
	Floor  int    `json:"floor"`
}

// CompleteResponse is the shard's exact verified top-k (global ids,
// canonical order).
type CompleteResponse struct {
	Stamp Stamp           `json:"stamp"`
	TopK  []core.Scored   `json:"top_k"`
	Stats core.PhaseStats `json:"stats"`
}

// ReleaseRequest abandons a paused bound phase (shard pruned or query
// cancelled), returning its engine to the worker's pool early instead
// of waiting out the handle TTL.
type ReleaseRequest struct {
	Handle uint64 `json:"handle"`
}

// ShardzResponse is the worker's health snapshot.
type ShardzResponse struct {
	Stamp     Stamp `json:"stamp"`
	Objects   int   `json:"objects"`
	Primaries int   `json:"primaries"`
	Replicas  int   `json:"replicas"`
	// Handles is how many bound phases are currently paused.
	Handles int `json:"handles"`
}

// wireError is the JSON body of a non-200 worker response.
type wireError struct {
	Error string `json:"error"`
}

// Fingerprint hashes a dataset's full content — object count, point
// counts, exact coordinate and timestamp bits — into the generation
// fingerprint. Coordinator and workers load the same dataset
// independently (from a file or a seeded generator); equal content
// yields equal fingerprints with no file distribution or handshake.
func Fingerprint(ds *data.Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(uint64(ds.N()))
	for i := range ds.Objects {
		o := &ds.Objects[i]
		w(uint64(len(o.Pts)))
		for _, p := range o.Pts {
			w(math.Float64bits(p.X))
			w(math.Float64bits(p.Y))
			w(math.Float64bits(p.Z))
		}
		for _, t := range o.Times {
			w(math.Float64bits(t))
		}
	}
	return h.Sum64()
}

// Generation folds the partition shape into a dataset fingerprint: a
// worker repartitioned onto a different shard count or replica horizon
// holds different primaries and replicas, so its answers are just as
// unmergeable as answers from different data.
func Generation(fingerprint uint64, shards int, maxR float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range [...]uint64{fingerprint, uint64(shards), math.Float64bits(maxR)} {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// decodeStrict parses data as exactly one JSON value of v's shape:
// unknown fields and trailing garbage are errors. Wire structs must
// match bit-for-bit or the response is rejected.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// checkStamp rejects a response stamped with a different generation or
// partition slot than the client expects.
func checkStamp(got, want Stamp) error {
	if got != want {
		return fmt.Errorf("%w: worker reports generation=%d shard=%d/%d, coordinator expects generation=%d shard=%d/%d",
			shard.ErrStaleGeneration, got.Generation, got.Shard, got.Shards, want.Generation, want.Shard, want.Shards)
	}
	return nil
}

// checkScoredList validates a scored list before it may touch the
// merge: at most limit entries, every id in [0, n), every score in
// [0, n-1] (no object interacts with more than n-1 others), no
// duplicate ids, and canonical order (score descending, id ascending
// on ties) — the order the merge algebra's correctness rests on.
func checkScoredList(name string, list []core.Scored, limit, n int) error {
	if len(list) > limit {
		return fmt.Errorf("%w: %s has %d entries, limit %d", shard.ErrBadResponse, name, len(list), limit)
	}
	seen := make(map[int]struct{}, len(list))
	for i, s := range list {
		if s.Obj < 0 || s.Obj >= n {
			return fmt.Errorf("%w: %s[%d] object id %d outside [0,%d)", shard.ErrBadResponse, name, i, s.Obj, n)
		}
		if s.Score < 0 || s.Score > n-1 {
			return fmt.Errorf("%w: %s[%d] score %d outside [0,%d]", shard.ErrBadResponse, name, i, s.Score, n-1)
		}
		if _, dup := seen[s.Obj]; dup {
			return fmt.Errorf("%w: %s repeats object id %d", shard.ErrBadResponse, name, s.Obj)
		}
		seen[s.Obj] = struct{}{}
		if i > 0 {
			prev := list[i-1]
			if s.Score > prev.Score || (s.Score == prev.Score && s.Obj < prev.Obj) {
				return fmt.Errorf("%w: %s breaks canonical order at index %d", shard.ErrBadResponse, name, i)
			}
		}
	}
	return nil
}

// checkStats rejects stats with negative durations or counters — a
// corrupt response shaped well enough to parse must still not skew the
// merged accounting.
func checkStats(s core.PhaseStats) error {
	for _, d := range [...]int64{int64(s.LabelInput), int64(s.GridMapping), int64(s.LowerBounding), int64(s.UpperBounding), int64(s.Verification)} {
		if d < 0 {
			return fmt.Errorf("%w: negative phase duration", shard.ErrBadResponse)
		}
	}
	for _, c := range [...]int{s.LabelBytes, s.Candidates, s.Verified, s.DistanceComps, s.AdjComputed,
		s.SmallCells, s.LargeCells, s.LargeBuilds, s.IndexBytes, s.SmallGridBytes, s.SmallGridUncompressedBytes, s.LargeGridBytes} {
		if c < 0 {
			return fmt.Errorf("%w: negative stats counter", shard.ErrBadResponse)
		}
	}
	return nil
}

// checkBoundResponse fully validates a decoded bound response for a
// dataset of n global objects and a query with parameter k.
func checkBoundResponse(resp *BoundResponse, want Stamp, k, n int) error {
	if err := checkStamp(resp.Stamp, want); err != nil {
		return err
	}
	if err := checkScoredList("top_lbs", resp.TopLBs, k, n); err != nil {
		return err
	}
	if resp.MaxUB < 0 || resp.MaxUB > n-1 {
		return fmt.Errorf("%w: max_ub %d outside [0,%d]", shard.ErrBadResponse, resp.MaxUB, n-1)
	}
	for _, s := range resp.TopLBs {
		if s.Score > resp.MaxUB {
			return fmt.Errorf("%w: lower bound %d exceeds max_ub %d", shard.ErrBadResponse, s.Score, resp.MaxUB)
		}
	}
	return checkStats(resp.Stats)
}

// checkCompleteResponse fully validates a decoded complete response.
func checkCompleteResponse(resp *CompleteResponse, want Stamp, k, n int) error {
	if err := checkStamp(resp.Stamp, want); err != nil {
		return err
	}
	if err := checkScoredList("top_k", resp.TopK, k, n); err != nil {
		return err
	}
	return checkStats(resp.Stats)
}
