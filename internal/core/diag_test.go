package core

import (
	"fmt"
	"os"
	"testing"
	"time"

	"mio/internal/baseline"
	"mio/internal/data"
)

func TestDiagDensity(t *testing.T) {
	if os.Getenv("MIO_DIAG") == "" {
		t.Skip("diagnostic; set MIO_DIAG=1 to run")
	}
	sets := data.Standard(1.0)
	for _, name := range []string{"Neuron", "Neuron-2", "Bird", "Bird-2", "Syn"} {
		ds := sets[name]
		r := 4.0
		e, _ := NewEngine(ds, Options{})
		t0 := time.Now()
		res, _ := e.Run(r)
		total := time.Since(t0)
		q := newQuery(e, r, 1)
		q.gridMapping()
		occ := 0
		maxOcc := 0
		sumCard := 0
		nCells := 0
		for c := 0; c < q.idx.large.Len(); c++ {
			card := len(q.idx.large.CellObjs(c))
			sumCard += card
			nCells++
			if card > maxOcc {
				maxOcc = card
			}
			if card > 1 {
				occ++
			}
		}
		t1 := time.Now()
		baseline.SG(ds, r, 1)
		sgTotal := time.Since(t1)
		fmt.Printf("%-9s n=%-6d cells=%-7d avgObjsPerCell=%.2f maxObjs=%d sharedCells=%.1f%% cand=%d verified=%d | BIGrid=%v SG=%v GM=%v LB=%v UB=%v V=%v\n",
			name, ds.N(), nCells, float64(sumCard)/float64(nCells), maxOcc,
			100*float64(occ)/float64(nCells), res.Stats.Candidates, res.Stats.Verified,
			total, sgTotal, res.Stats.GridMapping, res.Stats.LowerBounding, res.Stats.UpperBounding, res.Stats.Verification)
	}
}
