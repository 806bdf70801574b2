package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"mio"
	"mio/internal/baseline"
	"mio/internal/data"
)

// oracle answers "what is every object's score at r" for any r up to
// rMax from one table: near[a*n+b] is the smallest squared distance
// between a point of object a and a point of object b (+Inf beyond
// rMax). Two objects interact at r exactly when that minimum is at
// most r², so one pass over the point pairs replaces one
// baseline.SGScores run per distinct r — a workload asks hundreds of
// distinct r. It shares no code with BIGrid; run() checks it against
// baseline.SGScores at two radii of every run.
type oracle struct {
	n    int
	near []float64
}

type cellKey [3]int32

type cellPoint struct {
	obj     int32
	x, y, z float64
}

func buildOracle(ds *data.Dataset, rMax float64) *oracle {
	n := ds.N()
	o := &oracle{n: n, near: make([]float64, n*n)}
	for i := range o.near {
		o.near[i] = math.Inf(1)
	}
	keyOf := func(x, y, z float64) cellKey {
		return cellKey{int32(math.Floor(x / rMax)), int32(math.Floor(y / rMax)), int32(math.Floor(z / rMax))}
	}
	cells := make(map[cellKey][]cellPoint)
	for a := range ds.Objects {
		for _, p := range ds.Objects[a].Pts {
			k := keyOf(p.X, p.Y, p.Z)
			cells[k] = append(cells[k], cellPoint{int32(a), p.X, p.Y, p.Z})
		}
	}
	// Row a is written only by the goroutine that owns object a.
	workers := 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := w; a < n; a += workers {
				row := o.near[a*n : (a+1)*n]
				for _, p := range ds.Objects[a].Pts {
					k := keyOf(p.X, p.Y, p.Z)
					for dx := int32(-1); dx <= 1; dx++ {
						for dy := int32(-1); dy <= 1; dy++ {
							for dz := int32(-1); dz <= 1; dz++ {
								for _, q := range cells[cellKey{k[0] + dx, k[1] + dy, k[2] + dz}] {
									if int(q.obj) <= a {
										continue
									}
									// The same expression the program's kernels
									// evaluate, so d2 ≤ r² decides identically.
									dx, dy, dz := q.x-p.X, q.y-p.Y, q.z-p.Z
									if d2 := dx*dx + dy*dy + dz*dz; d2 < row[q.obj] {
										row[q.obj] = d2
									}
								}
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return o
}

// scores returns every object's exact score at r.
func (o *oracle) scores(r float64) []int {
	r2 := r * r
	s := make([]int, o.n)
	for a := 0; a < o.n; a++ {
		row := o.near[a*o.n : (a+1)*o.n]
		for b := a + 1; b < o.n; b++ {
			if row[b] <= r2 {
				s[a]++
				s[b]++
			}
		}
	}
	return s
}

// answer is one distinct response the program gave: the query, what it
// returned, and how many requests received exactly these bytes.
type answer struct {
	idx      int // stream index of the first request that received it
	q        query
	topK     []mio.Scored
	degraded bool
	count    int
}

// check verifies one answer against the oracle's scores for its r: the
// score sequence must be the k highest scores, and every returned
// object must have the score it is listed with.
func checkAnswer(a *answer, scores []int) error {
	if a.degraded {
		return fmt.Errorf("degraded answer")
	}
	want := a.q.K
	if want > len(scores) {
		want = len(scores)
	}
	if len(a.topK) != want {
		return fmt.Errorf("got %d entries, want %d", len(a.topK), want)
	}
	best := append([]int(nil), scores...)
	sort.Sort(sort.Reverse(sort.IntSlice(best)))
	seen := make(map[int]bool, want)
	for i, s := range a.topK {
		if s.Obj < 0 || s.Obj >= len(scores) || seen[s.Obj] {
			return fmt.Errorf("entry %d: object %d out of range or repeated", i, s.Obj)
		}
		seen[s.Obj] = true
		if s.Score != best[i] {
			return fmt.Errorf("entry %d: score %d, the oracle's rank-%d score is %d", i, s.Score, i+1, best[i])
		}
		if scores[s.Obj] != s.Score {
			return fmt.Errorf("entry %d: object %d listed with score %d, oracle says %d", i, s.Obj, s.Score, scores[s.Obj])
		}
	}
	return nil
}

// verify checks every answer and returns how many requests received a
// wrong one, with the first few reasons.
func verify(ds *data.Dataset, rMax float64, answers []*answer, golden map[string][]int) (wrong int, reasons []string) {
	if len(answers) == 0 {
		return 0, nil
	}
	o := buildOracle(ds, rMax)
	fail := func(a *answer, err error) {
		wrong += a.count
		if len(reasons) < 5 {
			reasons = append(reasons, fmt.Sprintf("query %d (r=%v k=%d): %v", a.idx, a.q.R, a.q.K, err))
		}
	}
	// The table itself is tied to the repository's own exact baseline
	// at the first and last radius asked.
	for _, a := range []*answer{answers[0], answers[len(answers)-1]} {
		mine, sg := o.scores(a.q.R), baseline.SGScores(ds, a.q.R)
		for i := range sg {
			if mine[i] != sg[i] {
				return len(answers), []string{fmt.Sprintf("oracle disagrees with baseline.SGScores at r=%v: object %d scores %d vs %d", a.q.R, i, mine[i], sg[i])}
			}
		}
	}
	byR := make(map[float64][]int)
	for _, a := range answers {
		scores, ok := byR[a.q.R]
		if !ok {
			scores = o.scores(a.q.R)
			byR[a.q.R] = scores
		}
		if err := checkAnswer(a, scores); err != nil {
			fail(a, err)
			continue
		}
		if want, ok := golden[a.q.key()]; ok {
			for i, s := range a.topK {
				if i >= len(want) || want[i] != s.Score {
					fail(a, fmt.Errorf("scores differ from expected/seed1.json: %v", want))
					break
				}
			}
		}
	}
	return wrong, reasons
}

// expectedFile is the checked-in answer key for the default seed: per
// workload, the content hash of the dataset file it was made from and
// the top-k score sequence of each query of the counted prefix. It is
// a second, frozen witness beside the live oracle; on any other seed,
// or when the generators change the dataset, only the oracle speaks.
//
//go:embed expected/seed1.json
var expectedJSON []byte

const defaultSeed = 1

type expectedEntry struct {
	DatasetSHA256 string           `json:"dataset_sha256"`
	Scores        map[string][]int `json:"scores"`
}

func loadExpected(raw []byte) (map[string]expectedEntry, error) {
	all := make(map[string]expectedEntry)
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("expected/seed1.json: %w", err)
	}
	return all, nil
}

// goldenFor returns the expected score sequences that apply to this
// run, or nil.
func goldenFor(w *workload, seed int64, hash string) (map[string][]int, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	all, err := loadExpected(expectedJSON)
	if err != nil {
		return nil, err
	}
	if e, ok := all[w.name]; ok && e.DatasetSHA256 == hash {
		return e.Scores, nil
	}
	return nil, nil
}

// writeExpected replaces w's entry in the file at path with the
// verified answers of the counted prefix.
func writeExpected(path string, w *workload, hash string, answers []*answer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	all, err := loadExpected(raw)
	if err != nil {
		return err
	}
	e := expectedEntry{DatasetSHA256: hash, Scores: make(map[string][]int)}
	for _, a := range answers {
		if a.idx >= w.counted {
			continue
		}
		scores := make([]int, len(a.topK))
		for i, s := range a.topK {
			scores[i] = s.Score
		}
		e.Scores[a.q.key()] = scores
	}
	all[w.name] = e
	out, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func fileSHA256(path string) (string, float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), float64(len(raw)) / 1e6, nil
}
