package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// scalarFirstWithin2 is the oracle: the exact break-on-first-hit loop
// the kernels replace, built on the scalar Dist2.
func scalarFirstWithin2(p Point, xs, ys, zs []float64, r2 float64) int {
	for i := range xs {
		if Dist2(p, Point{xs[i], ys[i], zs[i]}) <= r2 {
			return i
		}
	}
	return -1
}

func scalarCountWithin2(p Point, xs, ys, zs []float64, r2 float64) int {
	count := 0
	for i := range xs {
		if Dist2(p, Point{xs[i], ys[i], zs[i]}) <= r2 {
			count++
		}
	}
	return count
}

// splitSoA flattens pts into coordinate blocks.
func splitSoA(pts []Point) (xs, ys, zs []float64) {
	for _, p := range pts {
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
		zs = append(zs, p.Z)
	}
	return
}

// checkKernels cross-checks every kernel against the scalar oracle on
// one input and reports mismatches.
func checkKernels(t *testing.T, p Point, xs, ys, zs []float64, r2 float64) {
	t.Helper()
	wantFirst := scalarFirstWithin2(p, xs, ys, zs, r2)
	if got := FirstWithin2(p.X, p.Y, p.Z, xs, ys, zs, r2); got != wantFirst {
		t.Errorf("FirstWithin2(%v, n=%d, r2=%g) = %d, scalar %d", p, len(xs), r2, got, wantFirst)
	}
	if got, want := AnyWithin2(p.X, p.Y, p.Z, xs, ys, zs, r2), wantFirst >= 0; got != want {
		t.Errorf("AnyWithin2(%v, n=%d, r2=%g) = %v, scalar %v", p, len(xs), r2, got, want)
	}
	wantCount := scalarCountWithin2(p, xs, ys, zs, r2)
	if got := CountWithin2(p.X, p.Y, p.Z, xs, ys, zs, r2); got != wantCount {
		t.Errorf("CountWithin2(%v, n=%d, r2=%g) = %d, scalar %d", p, len(xs), r2, got, wantCount)
	}
}

// TestKernelsAdversarial pins the edge cases down explicitly: empty
// blocks, every tail length around the 4-wide unroll, signed zeros,
// subnormals, exact-boundary distances and huge magnitudes.
func TestKernelsAdversarial(t *testing.T) {
	sub := math.SmallestNonzeroFloat64 // subnormal
	cases := []struct {
		name string
		p    Point
		pts  []Point
		r2   float64
	}{
		{"empty", Pt(0, 0, 0), nil, 1},
		{"len1-hit", Pt(0, 0, 0), []Point{Pt(0.5, 0, 0)}, 1},
		{"len1-miss", Pt(0, 0, 0), []Point{Pt(2, 0, 0)}, 1},
		{"len3-tail-hit", Pt(0, 0, 0), []Point{Pt(9, 0, 0), Pt(9, 9, 0), Pt(0.1, 0.1, 0.1)}, 1},
		{"len5-hit-in-block-and-tail", Pt(0, 0, 0), []Point{Pt(9, 0, 0), Pt(0.1, 0, 0), Pt(0.2, 0, 0), Pt(9, 9, 9), Pt(0, 0, 0)}, 1},
		{"len7-all-miss", Pt(0, 0, 0), []Point{Pt(2, 0, 0), Pt(0, 2, 0), Pt(0, 0, 2), Pt(2, 2, 0), Pt(2, 0, 2), Pt(0, 2, 2), Pt(2, 2, 2)}, 1},
		{"signed-zero", Pt(math.Copysign(0, -1), 0, 0), []Point{Pt(0, math.Copysign(0, -1), 0), Pt(math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1))}, 0},
		{"subnormal-coords", Pt(sub, -sub, sub), []Point{Pt(-sub, sub, -sub), Pt(0, 0, 0)}, 0},
		{"subnormal-r2", Pt(0, 0, 0), []Point{Pt(sub, 0, 0), Pt(0, 0, 0)}, sub},
		{"exact-boundary", Pt(0, 0, 0), []Point{Pt(1, 0, 0), Pt(0, 1, 0)}, 1}, // d² == r² counts (<=)
		{"just-past-boundary", Pt(0, 0, 0), []Point{Pt(1, 0, 0)}, math.Nextafter(1, 0)},
		{"huge-coords", Pt(1e154, 0, 0), []Point{Pt(-1e154, 0, 0), Pt(1e154, 1, 1)}, 3},
		{"inf-distance-overflow", Pt(1e200, 1e200, 0), []Point{Pt(-1e200, -1e200, 0), Pt(1e200, 1e200, 0)}, math.MaxFloat64},
		{"r2-zero-first-of-dups", Pt(1, 2, 3), []Point{Pt(1, 2, 3), Pt(1, 2, 3), Pt(1, 2, 3), Pt(1, 2, 3), Pt(1, 2, 3)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			xs, ys, zs := splitSoA(tc.pts)
			checkKernels(t, tc.p, xs, ys, zs, tc.r2)
		})
	}
}

// TestKernelsMatchScalarProperty is the randomized property: on blocks
// of every length (crossing the unroll boundary) with clustered
// coordinates, kernels and scalar oracle agree bit-for-bit.
func TestKernelsMatchScalarProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := local.Intn(21) // 0..20 covers empty, sub-block, and multi-block
		r := local.Float64() * 3
		p := Pt(local.NormFloat64()*2, local.NormFloat64()*2, local.NormFloat64()*2)
		pts := make([]Point, n)
		for i := range pts {
			// Cluster near p so hits and misses interleave.
			pts[i] = Pt(p.X+local.NormFloat64()*2, p.Y+local.NormFloat64()*2, p.Z+local.NormFloat64()*2)
		}
		xs, ys, zs := splitSoA(pts)
		wantFirst := scalarFirstWithin2(p, xs, ys, zs, r*r)
		wantCount := scalarCountWithin2(p, xs, ys, zs, r*r)
		return FirstWithin2(p.X, p.Y, p.Z, xs, ys, zs, r*r) == wantFirst &&
			AnyWithin2(p.X, p.Y, p.Z, xs, ys, zs, r*r) == (wantFirst >= 0) &&
			CountWithin2(p.X, p.Y, p.Z, xs, ys, zs, r*r) == wantCount
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzKernelsMatchScalar drives the kernels with fuzz-chosen query
// point, radius and a PRNG-expanded block whose coordinates mix
// normal values, signed zeros and subnormals. NaN inputs are skipped:
// the layer above (data.Validate, ReadBinary hardening) rejects them
// before any kernel runs.
func FuzzKernelsMatchScalar(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 1.0, int64(1), uint8(0))
	f.Add(1.5, -2.5, 3.5, 2.0, int64(42), uint8(9))
	f.Add(math.Copysign(0, -1), 0.0, 0.0, 0.0, int64(7), uint8(5))
	f.Add(1e154, -1e154, 0.0, math.MaxFloat64, int64(99), uint8(20))
	f.Fuzz(func(t *testing.T, px, py, pz, r2 float64, seed int64, n uint8) {
		if math.IsNaN(px) || math.IsNaN(py) || math.IsNaN(pz) || math.IsNaN(r2) {
			t.Skip("NaN-free domain")
		}
		local := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		ys := make([]float64, n)
		zs := make([]float64, n)
		for i := 0; i < int(n); i++ {
			for _, c := range []*float64{&xs[i], &ys[i], &zs[i]} {
				switch local.Intn(8) {
				case 0:
					*c = math.Copysign(0, -1)
				case 1:
					*c = math.SmallestNonzeroFloat64 * float64(local.Intn(5))
				case 2:
					*c = px + local.NormFloat64()*1e-8
				default:
					*c = local.NormFloat64() * math.Pow(10, float64(local.Intn(8)-4))
				}
			}
		}
		p := Pt(px, py, pz)
		wantFirst := scalarFirstWithin2(p, xs, ys, zs, r2)
		if got := FirstWithin2(px, py, pz, xs, ys, zs, r2); got != wantFirst {
			t.Fatalf("FirstWithin2 = %d, scalar %d (n=%d r2=%g)", got, wantFirst, n, r2)
		}
		if got := CountWithin2(px, py, pz, xs, ys, zs, r2); got != scalarCountWithin2(p, xs, ys, zs, r2) {
			t.Fatalf("CountWithin2 = %d, scalar %d (n=%d r2=%g)", got, scalarCountWithin2(p, xs, ys, zs, r2), n, r2)
		}
	})
}

// TestKernelsMismatchedLengthsPanic documents the contract: shorter
// ys/zs blocks panic instead of truncating silently.
func TestKernelsMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched block lengths did not panic")
		}
	}()
	FirstWithin2(0, 0, 0, []float64{1, 2}, []float64{1}, []float64{1, 2}, 1)
}

func BenchmarkFirstWithin2(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	const n = 256
	xs := make([]float64, n)
	ys := make([]float64, n)
	zs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = rng.Float64() * 100
		zs[i] = rng.Float64() * 100
	}
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if FirstWithin2(-50, -50, -50, xs, ys, zs, 1) != -1 {
				b.Fatal("unexpected hit")
			}
		}
	})
	b.Run("scalar-miss", func(b *testing.B) {
		p := Pt(-50, -50, -50)
		for i := 0; i < b.N; i++ {
			if scalarFirstWithin2(p, xs, ys, zs, 1) != -1 {
				b.Fatal("unexpected hit")
			}
		}
	})
	// Near's miss: one scan against a group's box stands in for one
	// FirstWithin2 miss per group point.
	b.Run("nearbox-miss", func(b *testing.B) {
		box := Box{Min: Pt(-60, -60, -60), Max: Pt(-40, -40, -40)}
		for i := 0; i < b.N; i++ {
			if nearBox(box, xs, ys, zs, 1) != -1 {
				b.Fatal("unexpected hit")
			}
		}
	})
}

// fusedWithin2 are FirstWithin2's distance test as a compiler that
// fuses x*y+z may evaluate it (Go does on arm64, among others; on amd64
// it does not, even at GOAMD64=v3): the sum's two additions as FMAs,
// over either product first.
var fusedWithin2 = []func(dx, dy, dz, r2 float64) bool{
	func(dx, dy, dz, r2 float64) bool { return math.FMA(dz, dz, math.FMA(dy, dy, dx*dx)) <= r2 },
	func(dx, dy, dz, r2 float64) bool { return math.FMA(dz, dz, math.FMA(dx, dx, dy*dy)) <= r2 },
}

// nearBox is Near's test of one block: the box prepared for r2, then
// First.
func nearBox(b Box, xs, ys, zs []float64, r2 float64) int {
	n := NewNear(b, r2)
	return n.First(xs, ys, zs)
}

// checkNearBox asserts Near's contract on one input: it never rejects
// a block in which FirstWithin2 finds a point within r2 of a group
// point, and no block point before the index it returns is within r2 of
// one. The same holds against fusedWithin2's tests.
func checkNearBox(t *testing.T, group, block []Point, r2 float64) {
	t.Helper()
	gx, gy, gz := splitSoA(group)
	xs, ys, zs := splitSoA(block)
	box := BoundBlock(gx, gy, gz)
	at := nearBox(box, xs, ys, zs, r2)
	end := at
	if at < 0 {
		end = len(xs)
	}
	for _, p := range group {
		if !box.Contains(p) && !math.IsNaN(p.X+p.Y+p.Z) {
			t.Fatalf("BoundBlock %v leaves out %v", box, p)
		}
		if hit := FirstWithin2(p.X, p.Y, p.Z, xs[:end], ys[:end], zs[:end], r2); hit >= 0 {
			t.Fatalf("nearBox(%v, r2=%v) = %d, but block point %d %v is within r2 of group point %v (d2 %v)",
				box, r2, at, hit, block[hit], p, Dist2(block[hit], p))
		}
		for f, within := range fusedWithin2 {
			for i, q := range block[:end] {
				if within(q.X-p.X, q.Y-p.Y, q.Z-p.Z, r2) {
					t.Fatalf("nearBox(%v, r2=%v) = %d, but block point %d %v is within r2 of group point %v in fused sum %d",
						box, r2, at, i, q, p, f)
				}
			}
		}
	}
}

// ulps returns v moved by k ulps, toward +Inf for k > 0.
func ulps(v float64, k int) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; k < 0; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// TestNearBoxNeverRejectsAHit is Near's soundness property, on the
// inputs where rounding could break it: block points at exactly
// d² = r² from a group point on a corner or a face of the group's box,
// the same points and r² one and two ulps either side, negative and
// large coordinates, groups far from the origin against their size
// (where the box's centre rounds by more than r), and random clouds,
// against FirstWithin2 as compiled and as fused (fusedWithin2).
func TestNearBoxNeverRejectsAHit(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	coord := func(scale float64) float64 {
		return (rng.Float64()*2 - 1) * scale
	}
	for iter := 0; iter < 4000; iter++ {
		scale, spread := math.Pow(10, float64(rng.Intn(12)-4)), 1e3
		if iter >= 3000 {
			spread = 1e12
		}
		c := Pt(coord(spread*scale), coord(spread*scale), coord(spread*scale))
		group := make([]Point, 2+rng.Intn(7))
		for i := range group {
			group[i] = c.Add(Pt(coord(scale), coord(scale), coord(scale)))
		}
		// A face point: the first group point pushed onto the box's
		// max-X face, at the box's mid Y and Z.
		b := Bound(group)
		mid := b.Min.Add(b.Max).Scale(0.5)
		group = append(group, Pt(b.Max.X, mid.Y, mid.Z))
		// Anchors: a corner (a group point extreme in every axis) and
		// the face point.
		corner := group[0]
		for _, p := range group {
			if p.X+p.Y+p.Z > corner.X+corner.Y+corner.Z {
				corner = p
			}
		}
		for _, anchor := range []Point{corner, group[len(group)-1], group[rng.Intn(len(group))]} {
			v := Pt(coord(scale), coord(scale), coord(scale))
			if rng.Intn(2) == 0 {
				v = Pt(math.Abs(v.X), 0, 0) // straight off the face
			}
			q := anchor.Add(v)
			r2 := Dist2(q, anchor)
			var block []Point
			for k := -2; k <= 2; k++ {
				block = append(block,
					Pt(ulps(q.X, k), q.Y, q.Z), Pt(q.X, ulps(q.Y, k), q.Z), Pt(q.X, q.Y, ulps(q.Z, k)),
					Pt(ulps(q.X, k), ulps(q.Y, k), ulps(q.Z, k)))
			}
			// Far points first, so the near ones sit behind the index.
			far := anchor.Add(v.Scale(3))
			block = append([]Point{far, far.Add(v)}, block...)
			for k := -2; k <= 2; k++ {
				checkNearBox(t, group, block, ulps(r2, k))
				for _, p := range block {
					checkNearBox(t, group, []Point{far, p}, ulps(r2, k))
				}
			}
		}
	}
}

// TestNearBoxExactBoundary pins the d² = r² cases down with integer
// coordinates, where every distance is exact: a block point at exactly r
// from a corner or a face of the box counts, and so does one a few ulps
// farther, inside Near's 2⁻⁴⁰ slack; one 2⁻³⁰ of r² farther does
// not. Negative coordinates behave as positive ones.
func TestNearBoxExactBoundary(t *testing.T) {
	group := []Point{Pt(-4, -4, -4), Pt(-1, -1, -1), Pt(-1, -2.5, -2.5)}
	box := BoundBlock(splitSoA(group))
	for _, tc := range []struct {
		name string
		q    Point
		r2   float64
		want int
	}{
		{"corner", Pt(2, 3, -1), 25, 0},         // (3, 4, 0) from (-1, -1, -1)
		{"face", Pt(4, -2.5, -2.5), 25, 0},      // 5 along X from the face point
		{"below-corner", Pt(-4, -8, -4), 16, 0}, // 4 along Y from (-4, -4, -4)
		{"corner-r2-1ulp-low", Pt(2, 3, -1), math.Nextafter(25, 0), 0},
		{"face-1ulp-far", Pt(math.Nextafter(4, 5), -2.5, -2.5), 25, 0},
		{"corner-past-slack", Pt(2, 3, -1), 25 * (1 - 0x1p-30), -1},
		{"face-past-slack", Pt(4+0x1p-20, -2.5, -2.5), 25, -1},
		{"inside", Pt(-2, -2, -2), 0, 0},
	} {
		got := nearBox(box, []float64{tc.q.X}, []float64{tc.q.Y}, []float64{tc.q.Z}, tc.r2)
		if got != tc.want {
			t.Errorf("%s: nearBox = %d, want %d", tc.name, got, tc.want)
		}
		checkNearBox(t, group, []Point{tc.q}, tc.r2)
	}
}

// TestBoundBlockSkipsNaN: a NaN coordinate stays out of the box, which
// is sound because FirstWithin2 finds no point with a NaN coordinate.
func TestBoundBlockSkipsNaN(t *testing.T) {
	nan := math.NaN()
	b := BoundBlock([]float64{1, nan, 3}, []float64{2, 5, nan}, []float64{0, 0, 9})
	if want := (Box{Min: Pt(1, 2, 0), Max: Pt(3, 5, 9)}); b != want {
		t.Fatalf("BoundBlock = %v, want %v", b, want)
	}
	if !BoundBlock(nil, nil, nil).Empty() {
		t.Fatal("the box of no points is not empty")
	}
	checkNearBox(t, []Point{Pt(nan, 0, 0), Pt(0, 0, 0)}, []Point{Pt(0.5, 0, 0), Pt(nan, 0, 0)}, 1)
}
