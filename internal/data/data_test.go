package data

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mio/internal/geom"
)

func TestDatasetStats(t *testing.T) {
	ds := &Dataset{
		Name: "x",
		Objects: []Object{
			{ID: 0, Pts: []geom.Point{geom.Pt(0, 0, 0), geom.Pt(1, 1, 1)}},
			{ID: 1, Pts: []geom.Point{geom.Pt(2, 2, 2)}},
		},
	}
	if ds.N() != 2 || ds.TotalPoints() != 3 {
		t.Fatalf("N=%d total=%d", ds.N(), ds.TotalPoints())
	}
	if ds.AvgPoints() != 1.5 {
		t.Fatalf("m = %v", ds.AvgPoints())
	}
	b := ds.Bounds()
	if b.Min != geom.Pt(0, 0, 0) || b.Max != geom.Pt(2, 2, 2) {
		t.Fatalf("bounds = %v", b)
	}
	s := ds.Summary()
	if s.N != 2 || !strings.Contains(s.String(), "n=2") {
		t.Fatalf("summary = %v", s)
	}
	if (&Dataset{}).AvgPoints() != 0 {
		t.Fatal("empty AvgPoints")
	}
}

func TestValidate(t *testing.T) {
	good := &Dataset{Objects: []Object{{ID: 0, Pts: []geom.Point{{}}}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good dataset rejected: %v", err)
	}
	cases := []*Dataset{
		{Objects: []Object{{ID: 1, Pts: []geom.Point{{}}}}},                         // wrong id
		{Objects: []Object{{ID: 0}}},                                                // empty object
		{Objects: []Object{{ID: 0, Pts: []geom.Point{{}}, Times: []float64{1, 2}}}}, // mismatched times
	}
	for i, ds := range cases {
		if err := ds.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSample(t *testing.T) {
	ds := GenUniform(UniformConfig{N: 100, M: 5, FieldSize: 50, Spread: 3, Seed: 1})
	s := ds.Sample(0.3, 42)
	if s.N() != 30 {
		t.Fatalf("sample N = %d", s.N())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("sample invalid: %v", err)
	}
	// Determinism.
	s2 := ds.Sample(0.3, 42)
	if !reflect.DeepEqual(pointsOf(s), pointsOf(s2)) {
		t.Fatal("sampling not deterministic")
	}
	// rate >= 1 clones.
	full := ds.Sample(1.0, 42)
	if full.N() != 100 {
		t.Fatalf("full sample N = %d", full.N())
	}
}

func pointsOf(ds *Dataset) [][]geom.Point {
	out := make([][]geom.Point, ds.N())
	for i := range ds.Objects {
		out[i] = ds.Objects[i].Pts
	}
	return out
}

func TestGeneratorsShapeAndDeterminism(t *testing.T) {
	type gen struct {
		name string
		make func() *Dataset
	}
	gens := []gen{
		{"neuron", func() *Dataset {
			return GenNeuron(NeuronConfig{N: 30, M: 100, Clusters: 3, FieldSize: 200, ClusterStd: 20, StepLen: 1.5, Branches: 4, Seed: 7})
		}},
		{"bird", func() *Dataset {
			return GenTrajectory(TrajectoryConfig{N: 50, M: 20, Groups: 4, FieldSize: 2000, Speed: 20, FollowStd: 8, Solo: 0.4, Seed: 7})
		}},
		{"syn", func() *Dataset {
			return GenPowerLaw(PowerLawConfig{N: 200, M: 6, Alpha: 1.5, Clusters: 20, FieldSize: 5000, HubStd: 5, Seed: 7})
		}},
		{"uniform", func() *Dataset {
			return GenUniform(UniformConfig{N: 40, M: 6, FieldSize: 100, Spread: 5, Seed: 7})
		}},
	}
	for _, g := range gens {
		a := g.make()
		if err := a.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", g.name, err)
		}
		b := g.make()
		if !reflect.DeepEqual(pointsOf(a), pointsOf(b)) {
			t.Fatalf("%s not deterministic", g.name)
		}
	}
}

func TestGenNeuronHasSkewAndElongation(t *testing.T) {
	ds := GenNeuron(NeuronConfig{N: 30, M: 200, Clusters: 3, FieldSize: 300, ClusterStd: 20, StepLen: 1.5, Branches: 4, Seed: 8})
	// Objects must be elongated: extent far exceeds the step length.
	for i := range ds.Objects {
		ext := (&Dataset{Objects: ds.Objects[i : i+1]}).Bounds().Extent()
		if math.Max(ext.X, math.Max(ext.Y, ext.Z)) < 5 {
			t.Fatalf("object %d not elongated: extent %v", i, ext)
		}
	}
}

func TestGenTrajectoryIsPlanar(t *testing.T) {
	ds := GenTrajectory(TrajectoryConfig{N: 20, M: 15, Groups: 3, FieldSize: 1000, Speed: 20, FollowStd: 5, Solo: 0.5, Seed: 9})
	for i := range ds.Objects {
		for _, p := range ds.Objects[i].Pts {
			if p.Z != 0 {
				t.Fatalf("trajectory point off-plane: %v", p)
			}
		}
	}
}

func TestGenPowerLawClusterSkew(t *testing.T) {
	// The largest cluster must hold far more objects than the median —
	// that is the power-law shape the Syn stand-in exists for.
	ds := GenPowerLaw(PowerLawConfig{N: 2000, M: 4, Alpha: 1.6, Clusters: 50, FieldSize: 50000, HubStd: 5, Seed: 10})
	// Recover cluster assignment by quantising anchors coarsely.
	counts := map[[3]int]int{}
	for i := range ds.Objects {
		p := ds.Objects[i].Pts[0]
		key := [3]int{int(p.X / 1000), int(p.Y / 1000), int(p.Z / 1000)}
		counts[key]++
	}
	sizes := make([]int, 0, len(counts))
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) < 5 || sizes[0] < 4*sizes[len(sizes)/2] {
		t.Fatalf("no power-law skew: sizes %v...", sizes[:min(len(sizes), 8)])
	}
}

func TestWithTimestamps(t *testing.T) {
	ds := GenUniform(UniformConfig{N: 10, M: 5, FieldSize: 100, Spread: 5, Seed: 11})
	td := WithTimestamps(ds, 2.0, 100, 12)
	if err := td.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range td.Objects {
		o := &td.Objects[i]
		if !o.Temporal() {
			t.Fatalf("object %d missing times", i)
		}
		for j := 1; j < len(o.Times); j++ {
			if d := o.Times[j] - o.Times[j-1]; math.Abs(d-2.0) > 1e-9 {
				t.Fatalf("tick = %v", d)
			}
		}
	}
	if ds.Objects[0].Temporal() {
		t.Fatal("original dataset mutated")
	}
}

func TestTextRoundTrip(t *testing.T) {
	ds := GenUniform(UniformConfig{N: 15, M: 4, FieldSize: 100, Spread: 5, Seed: 13})
	ds.Name = "roundtrip"
	var buf bytes.Buffer
	if err := WriteText(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pointsOf(ds), pointsOf(back)) {
		t.Fatal("text round-trip mismatch")
	}
}

func TestTextRoundTripTemporal(t *testing.T) {
	ds := WithTimestamps(GenUniform(UniformConfig{N: 5, M: 3, FieldSize: 50, Spread: 5, Seed: 14}), 1, 10, 15)
	var buf bytes.Buffer
	if err := WriteText(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Objects {
		if !reflect.DeepEqual(ds.Objects[i].Times, back.Objects[i].Times) {
			t.Fatalf("object %d times mismatch", i)
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",                   // no points
		"0 1 2",              // too few fields
		"0 1 2 3 4 5",        // too many fields
		"x 1 2 3",            // bad id
		"-1 1 2 3",           // negative id
		"0 a 2 3",            // bad number
		"1 1 2 3",            // non-dense ids
		"0 1 2 3\n0 1 2 3 4", // mixed temporal
	}
	for i, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
	// Comments and blank lines are fine.
	ok := "# comment\n\n0 1 2 3\n"
	if _, err := ReadText(strings.NewReader(ok)); err != nil {
		t.Errorf("comment case rejected: %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	ds := WithTimestamps(GenUniform(UniformConfig{N: 20, M: 6, FieldSize: 100, Spread: 5, Seed: 16}), 1, 10, 17)
	ds.Name = "bin"
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "bin" || !reflect.DeepEqual(pointsOf(ds), pointsOf(back)) {
		t.Fatal("binary round-trip mismatch")
	}
	for i := range ds.Objects {
		if !reflect.DeepEqual(ds.Objects[i].Times, back.Objects[i].Times) {
			t.Fatalf("object %d times mismatch", i)
		}
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("empty accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 8))); err == nil {
		t.Error("bad magic accepted")
	}
	ds := GenUniform(UniformConfig{N: 3, M: 2, FieldSize: 10, Spread: 2, Seed: 18})
	var buf bytes.Buffer
	WriteBinary(&buf, ds)
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	ds := GenUniform(UniformConfig{N: 8, M: 3, FieldSize: 20, Spread: 2, Seed: 19})
	ds.Name = "file"
	for _, name := range []string{"d.txt", "d.bin"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, ds); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(pointsOf(ds), pointsOf(back)) {
			t.Fatalf("%s round-trip mismatch", name)
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestStandardDatasets(t *testing.T) {
	sets := Standard(0.1)
	wantNames := []string{"Neuron", "Neuron-2", "Bird", "Bird-2", "Syn"}
	for _, n := range wantNames {
		ds, ok := sets[n]
		if !ok {
			t.Fatalf("missing %s", n)
		}
		if ds.Name != n || ds.N() < 8 {
			t.Fatalf("%s: name=%q n=%d", n, ds.Name, ds.N())
		}
	}
	// Shape relations from Table I: Neuron has fewer, bigger objects
	// than Neuron-2; Bird has the most objects.
	if sets["Neuron"].AvgPoints() <= sets["Neuron-2"].AvgPoints() {
		t.Error("Neuron should have larger m than Neuron-2")
	}
	if sets["Bird"].N() <= sets["Bird-2"].N() {
		t.Error("Bird should have larger n than Bird-2")
	}
}

// TestByName: every flag name generates, the three overrides apply, and
// Standard is the same table under its display names.
func TestByName(t *testing.T) {
	names := strings.Split(Names(), ", ")
	if len(names) != 10 {
		t.Fatalf("Names() = %q, want ten names", Names())
	}
	for _, name := range names {
		ds, err := ByName(name, 0.01, 0, 0, 0)
		if err != nil || ds.Validate() != nil || ds.N() < 8 {
			t.Fatalf("%s: %v, %v", name, ds.Summary(), err)
		}
		if again, _ := ByName(name, 0.01, 0, 0, 0); !reflect.DeepEqual(ds, again) {
			t.Errorf("%s is not deterministic", name)
		}
		// m is a target for the neuron arbors and no parameter of
		// powersize; everywhere else it is exact.
		sized, err := ByName(name, 0.01, 11, 7, 5)
		if err != nil || sized.N() != 11 || (!strings.HasPrefix(name, "neuron") && name != "powersize" && sized.TotalPoints() != 77) {
			t.Errorf("%s with n=11 m=7: %v, %v", name, sized.Summary(), err)
		}
		if reseeded, _ := ByName(name, 0.01, 0, 0, 12345); reflect.DeepEqual(pointsOf(ds), pointsOf(reseeded)) {
			t.Errorf("%s ignores the seed", name)
		}
	}
	if _, err := ByName("nope", 1, 0, 0, 0); err == nil || !strings.Contains(err.Error(), "neuron2") {
		t.Errorf("unknown name: err = %v, want one listing the names", err)
	}
	bird2, _ := ByName("bird2", 0.1, 0, 0, 0)
	if !reflect.DeepEqual(pointsOf(bird2), pointsOf(Standard(0.1)["Bird-2"])) {
		t.Error(`ByName("bird2") differs from Standard's Bird-2`)
	}
}
