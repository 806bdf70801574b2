package data

import (
	"math"
	"math/rand"

	"mio/internal/geom"
)

// This file generates the adversarial datasets of DESIGN.md §5: shapes
// the paper's five datasets do not cover (everything in one cell,
// uniform and sparse, power-law object sizes, hotspots joined by
// corridors), served by miogen and miosrv -gen. Each generator is
// deterministic under its seed, and each advertised shape property is
// pinned by a test (adversarial_test.go).

// OneCellConfig parameterises GenOneCell.
type OneCellConfig struct {
	N, M int
	Side float64 // side length of the single occupied cube
	Seed int64
}

// DefaultOneCell is the all-in-one-cell stress: the entire dataset
// inside a cube smaller than one query cell, so every object interacts
// with every other and spatial pruning buys nothing.
func DefaultOneCell() OneCellConfig {
	return OneCellConfig{N: 600, M: 40, Side: 6, Seed: 31}
}

// GenOneCell generates the all-in-one-cell dataset: all points uniform
// in a Side-sized cube. Extreme density with zero spatial spread — the
// regime where verification, not pruning, decides speed.
func GenOneCell(cfg OneCellConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Name: "onecell"}
	for i := 0; i < cfg.N; i++ {
		pts := make([]geom.Point, 0, cfg.M)
		for s := 0; s < cfg.M; s++ {
			pts = append(pts, geom.Pt(
				rng.Float64()*cfg.Side,
				rng.Float64()*cfg.Side,
				rng.Float64()*cfg.Side,
			))
		}
		ds.Objects = append(ds.Objects, Object{ID: i, Pts: pts})
	}
	return ds
}

// UniformSparseConfig parameterises GenUniformSparse.
type UniformSparseConfig struct {
	N, M      int
	FieldSize float64
	Spread    float64 // object extent
	Seed      int64
}

// DefaultUniformSparse is the uniform-sparse stress: planar objects
// spread thin over a huge field, so most query cells hold at most one
// object.
func DefaultUniformSparse() UniformSparseConfig {
	return UniformSparseConfig{N: 12000, M: 10, FieldSize: 60000, Spread: 15, Seed: 32}
}

// GenUniformSparse generates the uniform-sparse dataset: planar
// (z = 0) objects with uniform anchors and small extent. Minimal skew,
// minimal density, exactly two effective dimensions.
func GenUniformSparse(cfg UniformSparseConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Name: "sparse"}
	for i := 0; i < cfg.N; i++ {
		ax := rng.Float64() * cfg.FieldSize
		ay := rng.Float64() * cfg.FieldSize
		pts := make([]geom.Point, 0, cfg.M)
		for s := 0; s < cfg.M; s++ {
			pts = append(pts, geom.Pt(
				ax+rng.Float64()*cfg.Spread,
				ay+rng.Float64()*cfg.Spread,
				0,
			))
		}
		ds.Objects = append(ds.Objects, Object{ID: i, Pts: pts})
	}
	return ds
}

// PowerLawSizesConfig parameterises GenPowerLawSizes.
type PowerLawSizesConfig struct {
	N         int
	MinM      int     // smallest object size
	MaxM      int     // largest object size
	Alpha     float64 // Zipf exponent of the size distribution
	Clusters  int
	FieldSize float64
	HubStd    float64
	Seed      int64
}

// DefaultPowerLawSizes is the power-law object-size stress: a few
// enormous objects among thousands of tiny ones, so count-based
// parallel partitions and per-object cost assumptions collapse.
func DefaultPowerLawSizes() PowerLawSizesConfig {
	return PowerLawSizesConfig{N: 4000, MinM: 4, MaxM: 4000, Alpha: 1.1, Clusters: 60, FieldSize: 2500, HubStd: 20, Seed: 33}
}

// GenPowerLawSizes generates objects whose point counts follow a
// truncated Zipf(Alpha) over [MinM, MaxM]: object sizes span three
// orders of magnitude while anchors cluster like GenPowerLaw's.
func GenPowerLawSizes(cfg PowerLawSizesConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Name: "powersize"}
	centers := make([]geom.Point, cfg.Clusters)
	for i := range centers {
		centers[i] = geom.Pt(
			rng.Float64()*cfg.FieldSize,
			rng.Float64()*cfg.FieldSize,
			rng.Float64()*cfg.FieldSize,
		)
	}
	// Inverse-CDF sampling of a continuous truncated power law: sizes
	// concentrate at MinM with a heavy MaxM tail.
	sampleM := func() int {
		u := rng.Float64()
		a := 1 - cfg.Alpha
		lo := math.Pow(float64(cfg.MinM), a)
		hi := math.Pow(float64(cfg.MaxM), a)
		m := int(math.Pow(lo+u*(hi-lo), 1/a))
		if m < cfg.MinM {
			m = cfg.MinM
		}
		if m > cfg.MaxM {
			m = cfg.MaxM
		}
		return m
	}
	for i := 0; i < cfg.N; i++ {
		c := centers[rng.Intn(len(centers))]
		anchor := geom.Pt(
			c.X+rng.NormFloat64()*cfg.HubStd,
			c.Y+rng.NormFloat64()*cfg.HubStd,
			c.Z+rng.NormFloat64()*cfg.HubStd,
		)
		m := sampleM()
		pts := make([]geom.Point, 0, m)
		cur := anchor
		for s := 0; s < m; s++ {
			cur = cur.Add(randUnit(rng).Scale(rng.Float64() * cfg.HubStd * 0.2))
			pts = append(pts, cur)
		}
		ds.Objects = append(ds.Objects, Object{ID: i, Pts: pts})
	}
	return ds
}

// HotspotCommuteConfig parameterises GenHotspotCommute.
type HotspotCommuteConfig struct {
	N         int
	M         int
	Hotspots  int
	FieldSize float64
	HotStd    float64 // point spread inside a hotspot
	Commute   float64 // fraction of objects that commute between hotspots
	Seed      int64
}

// DefaultHotspotCommute is the urban-mobility stress: planar hotspots
// (homes/offices) holding most of the mass, connected by commute
// trajectories — the MOIST-style skew real movement data shows.
func DefaultHotspotCommute() HotspotCommuteConfig {
	return HotspotCommuteConfig{N: 8000, M: 24, Hotspots: 5, FieldSize: 20000, HotStd: 60, Commute: 0.3, Seed: 34}
}

// GenHotspotCommute generates the hotspot-commute mix: planar (z = 0)
// objects either dwell inside one Zipf-weighted hotspot or commute
// along the straight line between two hotspots. Heavy top-decile skew
// with thin corridors between the peaks.
func GenHotspotCommute(cfg HotspotCommuteConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Name: "commute"}
	centers := make([]geom.Point, cfg.Hotspots)
	for i := range centers {
		centers[i] = geom.Pt(rng.Float64()*cfg.FieldSize, rng.Float64()*cfg.FieldSize, 0)
	}
	weights := make([]float64, cfg.Hotspots)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.5)
		total += weights[i]
	}
	pick := func() int {
		x := rng.Float64() * total
		for i, w := range weights {
			if x < w {
				return i
			}
			x -= w
		}
		return cfg.Hotspots - 1
	}
	for i := 0; i < cfg.N; i++ {
		pts := make([]geom.Point, 0, cfg.M)
		if rng.Float64() < cfg.Commute {
			// Commuter: M points along the segment between two distinct
			// hotspots, with road-width jitter.
			a := pick()
			b := pick()
			for b == a {
				b = (b + 1) % cfg.Hotspots
			}
			from, to := centers[a], centers[b]
			for s := 0; s < cfg.M; s++ {
				f := float64(s) / float64(cfg.M-1)
				pts = append(pts, geom.Pt(
					from.X+(to.X-from.X)*f+rng.NormFloat64()*cfg.HotStd*0.2,
					from.Y+(to.Y-from.Y)*f+rng.NormFloat64()*cfg.HotStd*0.2,
					0,
				))
			}
		} else {
			// Dweller: M points inside one hotspot.
			c := centers[pick()]
			for s := 0; s < cfg.M; s++ {
				pts = append(pts, geom.Pt(
					c.X+rng.NormFloat64()*cfg.HotStd,
					c.Y+rng.NormFloat64()*cfg.HotStd,
					0,
				))
			}
		}
		ds.Objects = append(ds.Objects, Object{ID: i, Pts: pts})
	}
	return ds
}
