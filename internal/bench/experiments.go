package bench

import (
	"fmt"
	"math"
	"time"

	"mio/internal/baseline"
	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/grid"
)

// engine builds a core engine, failing loudly — the harness runs over
// generated data, so construction errors are programming bugs.
func engine(ds *data.Dataset, opts core.Options) *core.Engine {
	e, err := core.NewEngine(ds, opts)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return e
}

// runBIGrid runs one plain BIGrid query.
func runBIGrid(ds *data.Dataset, r float64, k, workers int) *core.Result {
	e := engine(ds, core.Options{Workers: workers})
	res, err := e.RunTopK(r, k)
	if err != nil {
		panic(err)
	}
	return res
}

// primeLabeled collects labels for (ds, r) with one untimed query and
// returns the engine ready for labeled runs plus the store for
// label-size accounting. The paper's BIGrid-label rows measure the
// labeled re-query only; callers time e.RunTopK themselves.
func primeLabeled(ds *data.Dataset, r float64, k, workers int) (*core.Engine, *labelstore.Store) {
	store := labelstore.NewStore()
	e := engine(ds, core.Options{Workers: workers, Labels: store})
	if _, err := e.RunTopK(r, k); err != nil {
		panic(err)
	}
	return e, store
}

// runBIGridLabeled primes labels and returns the labeled re-query's
// result (untimed convenience wrapper).
func runBIGridLabeled(ds *data.Dataset, r float64, k, workers int) (*core.Result, *labelstore.Store) {
	e, store := primeLabeled(ds, r, k, workers)
	res, err := e.RunTopK(r, k)
	if err != nil {
		panic(err)
	}
	return res, store
}

// Table1 prints the dataset statistics in the shape of Table I.
func (s *Suite) Table1() error {
	t := &table{
		title:  "Table I: dataset statistics (stand-ins, scale " + fmt.Sprintf("%.2f", s.Scale) + ")",
		header: []string{"Dataset", "n", "m", "nm"},
	}
	sets := s.Datasets()
	for _, name := range DatasetNames {
		ds := sets[name]
		t.add(name,
			fmt.Sprintf("%d", ds.N()),
			fmt.Sprintf("%.0f", ds.AvgPoints()),
			fmt.Sprintf("%d", ds.TotalPoints()))
	}
	s.emit(t)
	return nil
}

// Fig5Time reproduces Fig. 5(a)-(e): single-core runtime vs r for NL,
// SG, BIGrid and BIGrid-label on each dataset.
func (s *Suite) Fig5Time() error {
	sets := s.Datasets()
	for _, name := range DatasetNames {
		ds := sets[name]
		t := &table{
			title:  fmt.Sprintf("Fig. 5 (time) %s: runtime [ms] vs r", name),
			header: []string{"r", "NL", "SG", "BIGrid", "BIGrid-label"},
		}
		for _, r := range s.Rs {
			nlCell := "-"
			if ds.TotalPoints() <= s.NLPointLimit {
				d := timeIt(func() { baseline.NL(ds, r, 1) })
				nlCell = ms(d)
			}
			sgD := timeIt(func() { baseline.SG(ds, r, 1) })
			var bg *core.Result
			bgD := timeIt(func() { bg = runBIGrid(ds, r, 1, 1) })
			le, _ := primeLabeled(ds, r, 1, 1)
			lblD := timeIt(func() {
				if _, err := le.RunTopK(r, 1); err != nil {
					panic(err)
				}
			})
			_ = bg
			t.add(fmt.Sprintf("%g", r), nlCell, ms(sgD), ms(bgD), ms(lblD))
		}
		s.emit(t)
	}
	return nil
}

// Fig5Mem reproduces Fig. 5(f)-(j): index memory vs r for SG, BIGrid
// and BIGrid-label (whose grid shrinks because 0**-labelled points are
// never mapped; label bytes are reported separately).
func (s *Suite) Fig5Mem() error {
	sets := s.Datasets()
	for _, name := range DatasetNames {
		ds := sets[name]
		t := &table{
			title:  fmt.Sprintf("Fig. 5 (memory) %s: index size [MiB] vs r", name),
			header: []string{"r", "SG", "BIGrid", "BIGrid-label", "labels"},
		}
		for _, r := range s.Rs {
			sg := baseline.BuildSG(ds, r)
			bg := runBIGrid(ds, r, 1, 1)
			lbl, store := runBIGridLabeled(ds, r, 1, 1)
			labelBytes := 0
			if l, ok := store.Get(int(math.Ceil(r))); ok {
				labelBytes = l.SizeBytes()
			}
			t.add(fmt.Sprintf("%g", r),
				mb(sg.SizeBytes()),
				mb(bg.Stats.IndexBytes),
				mb(lbl.Stats.IndexBytes),
				mb(labelBytes))
		}
		s.emit(t)
	}
	return nil
}

// Table2 reproduces Table II: the per-phase breakdown of BIGrid vs
// BIGrid-label at the default threshold (the first entry of Rs).
func (s *Suite) Table2() error {
	r := s.Rs[0]
	sets := s.Datasets()
	t := &table{
		title:  fmt.Sprintf("Table II: phase breakdown [ms] at r=%g", r),
		header: []string{"Dataset", "Algorithm", "Label-Input", "Grid-Mapping", "Lower-bounding", "Upper-bounding", "Verification"},
	}
	for _, name := range DatasetNames {
		ds := sets[name]
		bg := runBIGrid(ds, r, 1, 1)
		lbl, _ := runBIGridLabeled(ds, r, 1, 1)
		addRow := func(alg string, st core.PhaseStats) {
			t.add(name, alg, ms(st.LabelInput), ms(st.GridMapping),
				ms(st.LowerBounding), ms(st.UpperBounding), ms(st.Verification))
		}
		addRow("BIGrid", bg.Stats)
		addRow("BIGrid-label", lbl.Stats)
	}
	s.emit(t)
	return nil
}

// Fig6 reproduces Fig. 6: runtime and index memory vs the sampling rate
// s at the default threshold.
func (s *Suite) Fig6() error {
	r := s.Rs[0]
	rates := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	sets := s.Datasets()
	for _, name := range DatasetNames {
		full := sets[name]
		tTime := &table{
			title:  fmt.Sprintf("Fig. 6 (time) %s: runtime [ms] vs sampling rate, r=%g", name, r),
			header: []string{"s", "NL", "SG", "BIGrid", "BIGrid-label"},
		}
		tMem := &table{
			title:  fmt.Sprintf("Fig. 6 (memory) %s: index size [MiB] vs sampling rate, r=%g", name, r),
			header: []string{"s", "SG", "BIGrid", "BIGrid-label"},
		}
		for _, rate := range rates {
			ds := full.Sample(rate, 97)
			nlCell := "-"
			if ds.TotalPoints() <= s.NLPointLimit {
				nlCell = ms(timeIt(func() { baseline.NL(ds, r, 1) }))
			}
			sgD := timeIt(func() { baseline.SG(ds, r, 1) })
			var bg *core.Result
			bgD := timeIt(func() { bg = runBIGrid(ds, r, 1, 1) })
			le, _ := primeLabeled(ds, r, 1, 1)
			var lbl *core.Result
			lblD := timeIt(func() {
				var err error
				if lbl, err = le.RunTopK(r, 1); err != nil {
					panic(err)
				}
			})
			tTime.add(fmt.Sprintf("%.1f", rate), nlCell, ms(sgD), ms(bgD), ms(lblD))
			tMem.add(fmt.Sprintf("%.1f", rate),
				mb(baseline.BuildSG(ds, r).SizeBytes()),
				mb(bg.Stats.IndexBytes),
				mb(lbl.Stats.IndexBytes))
		}
		s.emit(tTime)
		s.emit(tMem)
	}
	return nil
}

// Fig7 reproduces Fig. 7: BIGrid runtime vs k for the top-k variant.
func (s *Suite) Fig7() error {
	r := s.Rs[0]
	ks := []int{1, 5, 10, 25, 50}
	sets := s.Datasets()
	t := &table{
		title: fmt.Sprintf("Fig. 7: BIGrid top-k runtime [ms] vs k, r=%g", r),
		header: append([]string{"Dataset"}, func() []string {
			h := make([]string, len(ks))
			for i, k := range ks {
				h[i] = fmt.Sprintf("k=%d", k)
			}
			return h
		}()...),
	}
	for _, name := range DatasetNames {
		ds := sets[name]
		row := []string{name}
		for _, k := range ks {
			kk := k
			if kk > ds.N() {
				kk = ds.N()
			}
			d := timeIt(func() { runBIGrid(ds, r, kk, 1) })
			row = append(row, ms(d))
		}
		t.add(row...)
	}
	s.emit(t)
	return nil
}

// Fig8 reproduces Fig. 8: the lower- and upper-bounding phase times of
// the competing parallel partitioning strategies, on the real-data
// stand-ins (the paper uses the four real datasets here).
func (s *Suite) Fig8() error {
	r := s.Rs[0]
	sets := s.Datasets()
	for _, name := range []string{"Neuron", "Neuron-2", "Bird", "Bird-2"} {
		ds := sets[name]
		t := &table{
			title:  fmt.Sprintf("Fig. 8 %s: bounding phase time [ms] vs cores, r=%g", name, r),
			header: []string{"t", "LB-greedy-d", "LB-hash-p", "UB-greedy-p", "UB-greedy-d"},
		}
		for _, w := range s.Workers {
			row := []string{fmt.Sprintf("%d", w)}
			for _, lb := range []core.LBStrategy{core.LBGreedyD, core.LBHashP} {
				e := engine(ds, core.Options{Workers: w, LB: lb})
				res, err := e.Run(r)
				if err != nil {
					return err
				}
				row = append(row, ms(res.Stats.LowerBounding))
			}
			for _, ub := range []core.UBStrategy{core.UBGreedyP, core.UBGreedyD} {
				e := engine(ds, core.Options{Workers: w, UB: ub})
				res, err := e.Run(r)
				if err != nil {
					return err
				}
				row = append(row, ms(res.Stats.UpperBounding))
			}
			t.add(row...)
		}
		s.emit(t)
	}
	return nil
}

// Fig9 reproduces Fig. 9: end-to-end runtime of the parallelised
// algorithms vs core count.
func (s *Suite) Fig9() error {
	r := s.Rs[0]
	sets := s.Datasets()
	for _, name := range DatasetNames {
		ds := sets[name]
		t := &table{
			title:  fmt.Sprintf("Fig. 9 %s: parallel runtime [ms] vs cores, r=%g", name, r),
			header: []string{"t", "NL", "SG", "BIGrid", "BIGrid-label"},
		}
		for _, w := range s.Workers {
			nlCell := "-"
			if ds.TotalPoints() <= s.NLPointLimit {
				nlCell = ms(timeIt(func() { baseline.NLParallel(ds, r, 1, w) }))
			}
			sgD := timeIt(func() { baseline.SGParallel(ds, r, 1, w) })
			bgD := timeIt(func() { runBIGrid(ds, r, 1, w) })
			le, _ := primeLabeled(ds, r, 1, w)
			lblD := timeIt(func() {
				if _, err := le.RunTopK(r, 1); err != nil {
					panic(err)
				}
			})
			t.add(fmt.Sprintf("%d", w), nlCell, ms(sgD), ms(bgD), ms(lblD))
		}
		s.emit(t)
	}
	return nil
}

// Table3 reproduces Table III: BIGrid and BIGrid-label speedup ratios
// against their single-core runs, on Neuron and Bird.
func (s *Suite) Table3() error {
	r := s.Rs[0]
	sets := s.Datasets()
	t := &table{
		title:  fmt.Sprintf("Table III: speedup vs single core, r=%g", r),
		header: []string{"t", "Neuron BIGrid", "Neuron BIGrid-label", "Bird BIGrid", "Bird BIGrid-label"},
	}
	type pair struct{ plain, labeled time.Duration }
	base := map[string]pair{}
	for _, name := range []string{"Neuron", "Bird"} {
		ds := sets[name]
		le, _ := primeLabeled(ds, r, 1, 1)
		base[name] = pair{
			plain: timeIt(func() { runBIGrid(ds, r, 1, 1) }),
			labeled: timeIt(func() {
				if _, err := le.RunTopK(r, 1); err != nil {
					panic(err)
				}
			}),
		}
	}
	for _, w := range s.Workers {
		if w == 1 {
			continue
		}
		row := []string{fmt.Sprintf("%d", w)}
		for _, name := range []string{"Neuron", "Bird"} {
			ds := sets[name]
			p := timeIt(func() { runBIGrid(ds, r, 1, w) })
			le, _ := primeLabeled(ds, r, 1, w)
			l := timeIt(func() {
				if _, err := le.RunTopK(r, 1); err != nil {
					panic(err)
				}
			})
			row = append(row,
				fmt.Sprintf("%.3f", float64(base[name].plain)/float64(p)),
				fmt.Sprintf("%.3f", float64(base[name].labeled)/float64(l)))
		}
		t.add(row...)
	}
	s.emit(t)
	return nil
}

// AppendixA quantifies the two design rationales of Appendix A and
// footnote 4: (a) the memory advantage of a sparse b(c) — here the
// small grid's sorted object-id runs — over dense n-bit bitsets, and (b) the cell-access blow-up an offline grid built for r'
// would suffer when queried with r > r' (the 27-cell neighbourhood
// grows as (2⌈r/r'⌉+1)³).
func (s *Suite) AppendixA() error {
	r := s.Rs[0]
	sets := s.Datasets()
	t := &table{
		title:  fmt.Sprintf("Appendix A (a): small-grid b(c) as sorted id runs vs dense bitsets, r=%g", r),
		header: []string{"Dataset", "id runs [MiB]", "dense [MiB]", "saved"},
	}
	for _, name := range DatasetNames {
		ds := sets[name]
		res := runBIGrid(ds, r, 1, 1)
		comp := res.Stats.SmallGridBytes
		dense := res.Stats.SmallGridUncompressedBytes
		t.add(name, mb(comp), mb(dense), fmt.Sprintf("%.1f%%", 100*(1-float64(comp)/float64(dense))))
	}
	s.emit(t)

	// (b) Offline grids: a grid built for r' < r must widen each
	// adjacency union to radius ⌈r/r'⌉, and the per-cell cost is
	// measured, not just counted, on the real Neuron grid.
	t2 := &table{
		title:  "Appendix A (b): offline grid built for r'=r/ratio — measured adjacency-union cost (Neuron)",
		header: []string{"r/r'", "cells per union", "union time [ms, 200 cells]", "vs online"},
	}
	neuron := s.Datasets()["Neuron"]
	baseTime := time.Duration(0)
	for _, ratio := range []int32{1, 2, 4} {
		rq := s.Rs[0]
		// Offline grid width r' = r/ratio.
		g := buildLargeGrid(neuron, rq/float64(ratio))
		keys := sampleCellKeys(g, 200)
		d := timeIt(func() {
			for _, k := range keys {
				g.ComputeAdjRadius(k, ratio)
			}
		})
		if ratio == 1 {
			baseTime = d
		}
		side := int(2*ratio + 1)
		t2.add(fmt.Sprintf("%d", ratio),
			fmt.Sprintf("%d", side*side*side),
			ms(d),
			fmt.Sprintf("%.1fx", float64(d)/float64(baseTime)))
	}
	s.emit(t2)

	// (c) §II-B empirically: the object-MBR R-tree filter degenerates
	// on elongated objects, and even the point-level R-tree loses to
	// the grids.
	t3 := &table{
		title:  fmt.Sprintf("Appendix A (c): MBR/R-tree baselines vs grids, r=%g (§II-B)", s.Rs[0]),
		header: []string{"Dataset", "RT-object [ms]", "RT-point [ms]", "SG [ms]", "BIGrid [ms]", "MBR filter overshoot"},
	}
	for _, name := range []string{"Neuron", "Bird-2"} {
		ds := s.Datasets()[name]
		r := s.Rs[0]
		var st baseline.RTObjectStats
		var scores []int
		rtObjD := timeIt(func() { scores, st = baseline.RTObjectScores(ds, r) })
		interacting := 0
		for _, sc := range scores {
			interacting += sc
		}
		interacting /= 2
		rtPtD := timeIt(func() { baseline.RTPointScores(ds, r) })
		sgD := timeIt(func() { baseline.SG(ds, r, 1) })
		bgD := timeIt(func() { runBIGrid(ds, r, 1, 1) })
		overshoot := "-"
		if interacting > 0 {
			overshoot = fmt.Sprintf("%.1fx", float64(st.CandidatePairs)/float64(interacting))
		}
		t3.add(name, ms(rtObjD), ms(rtPtD), ms(sgD), ms(bgD), overshoot)
	}
	s.emit(t3)
	return nil
}

// buildLargeGrid builds a standalone large-grid with the given cell
// width (the Appendix-A offline-grid stand-in).
func buildLargeGrid(ds *data.Dataset, width float64) *grid.LargeGrid {
	g, _, _ := grid.Build(grid.NewPoints(ds), width, 0, nil, 0, 1, nil, nil, nil)
	return g
}

// sampleCellKeys returns up to limit cell keys of the grid, evenly
// spaced over the directory so the sample is not all boundary cells.
func sampleCellKeys(g *grid.LargeGrid, limit int) []grid.Key {
	keys := make([]grid.Key, min(limit, g.Len()))
	for i := range keys {
		keys[i] = g.Key(i * g.Len() / len(keys))
	}
	return keys
}
