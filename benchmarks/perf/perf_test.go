package main

import (
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mio"
)

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the harness's own tables")

// smoke runs one workload at a size that takes a fraction of a second:
// 48 objects, 5 queries, no clock.
func smoke(t *testing.T, w *workload, seed int64, trace bool) *report {
	t.Helper()
	rep, err := run(w, runOpts{
		seed: seed, trace: trace, outDir: t.TempDir(), setups: 1,
		smokeN: 48, smokeQueries: 5,
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	if rep.failed != 0 || rep.attempted < 5 {
		t.Fatalf("%s trace=%v: attempted %d, failed %d: %v", w.name, trace, rep.attempted, rep.failed, rep.reasons)
	}
	return rep
}

// TestSmoke runs every workload through both passes and checks that
// every metric of BENCHMARK.json comes out once, that the seed alone
// decides the query stream, and that the counts made by the program
// repeat exactly.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			a := smoke(t, w, 1, true)
			for _, pass := range []struct {
				rep  *report
				defs []metricDef
			}{{smoke(t, w, 1, false), endToEnd}, {a, perLayer}} {
				if len(pass.rep.metrics.vals) != len(pass.defs) {
					t.Errorf("%d metrics emitted, want %d", len(pass.rep.metrics.vals), len(pass.defs))
				}
				for _, d := range pass.defs {
					if _, ok := pass.rep.metrics.vals[d.Name]; !ok || d.Unit == "" {
						t.Errorf("metric %s missing or without unit", d.Name)
					}
				}
			}
			b, other := smoke(t, w, 1, true), smoke(t, w, 2, true)
			if !reflect.DeepEqual(a.streamHead, b.streamHead) {
				t.Errorf("same seed, different streams: %v vs %v", a.streamHead, b.streamHead)
			}
			if reflect.DeepEqual(a.streamHead, other.streamHead) {
				t.Errorf("seeds 1 and 2 give the same stream: %v", a.streamHead)
			}
			for _, name := range []string{
				"core.dist_comps_per_query", "core.candidates_per_query", "core.verified_per_query",
				"core.adj_computed_per_query", "server.engine_runs", "shard.pruned_per_query",
			} {
				if a.metrics.vals[name] != b.metrics.vals[name] {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", name, a.metrics.vals[name], b.metrics.vals[name])
				}
			}
		})
	}
}

// TestOracleRejectsWrongAnswers makes sure the check can fail.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	ds := bird2(48)
	o := buildOracle(ds, 9)
	scores := o.scores(6)
	best, bestObj := -1, 0
	for obj, s := range scores {
		if s > best {
			best, bestObj = s, obj
		}
	}
	good := &answer{q: query{R: 6, K: 1}, count: 1}
	good.topK = append(good.topK, mio.Scored{Obj: bestObj, Score: best})
	if err := checkAnswer(good, scores); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	good.topK[0].Score--
	if err := checkAnswer(good, scores); err == nil {
		t.Fatal("score one too low accepted")
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []layerDef  `json:"per_layer"`
}

// layerDef is a per-layer entry of BENCHMARK.json: no bound key at all.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's tables the
// same list; -update rewrites the file from the tables.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkFile{
		Command:    []string{"bash", "benchmarks/perf/run.sh"},
		Paths:      []string{"benchmarks/perf"},
		RunSeconds: 20,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads() {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if *update {
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of step with the harness (go test ./benchmarks/perf -run TestBenchmarkJSON -update)\n got %+v\nwant %+v", got, want)
	}
}

// allowed is every name of the repository the harness may bind to:
// surfaces that ROADMAP items 2-4 do not plan to delete. Later PRs may
// not edit this directory, so a name outside the list would either
// block such a deletion or break the benchmark.
var allowed = map[string][]string{
	"mio":                          {"NewEngine", "WithLabels", "WithWorkers", "LoadDataset", "SaveDataset", "Result", "PhaseStats", "Scored"},
	"mio/internal/server":          {"New", "Config"},
	"mio/internal/core":            {"Options"},
	"mio/internal/core/labelstore": {"NewStore"},
	"mio/internal/data":            {"DefaultBird", "DefaultBird2", "DefaultNeuron2", "GenTrajectory", "GenNeuron", "Dataset"},
	"mio/internal/geom":            {"CountWithin2", "FirstWithin2"},
	"mio/internal/bitmap":          {"NewScratch", "FromBits", "Compressed"},
	"mio/internal/baseline":        {"SGScores"},
}

var allowedConfigFields = []string{"MaxInFlight", "Shards", "ShardHedgeAfter", "AllowSwap"}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// TestImportAllowlist parses the harness's own files and fails on any
// import of the repository, any package-qualified name, or any
// server.Config / core.Options field outside the allowed list.
func TestImportAllowlist(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			local := make(map[string]string) // local package name → import path
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path != "mio" && !strings.HasPrefix(path, "mio/") {
					continue
				}
				if _, ok := allowed[path]; !ok {
					t.Errorf("%s imports %s, which is not on the allowlist", name, path)
					continue
				}
				base := path[strings.LastIndex(path, "/")+1:]
				if imp.Name != nil {
					base = imp.Name.Name
				}
				local[base] = path
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					id, ok := n.X.(*ast.Ident)
					if !ok || id.Obj != nil { // a local variable shadows the package name
						return true
					}
					if path, ok := local[id.Name]; ok && !contains(allowed[path], n.Sel.Name) {
						t.Errorf("%s: %s.%s is not on the allowlist", fset.Position(n.Pos()), id.Name, n.Sel.Name)
					}
				case *ast.CompositeLit:
					sel, ok := n.Type.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					var fields []string
					switch local[id.Name] + "." + sel.Sel.Name {
					case "mio/internal/server.Config":
						fields = allowedConfigFields
					case "mio/internal/core.Options":
						fields = []string{"Labels"}
					default:
						return true
					}
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							t.Errorf("%s: %s.%s literal must use field names", fset.Position(el.Pos()), id.Name, sel.Sel.Name)
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok && !contains(fields, key.Name) {
							t.Errorf("%s: field %s of %s.%s is not on the allowlist", fset.Position(kv.Pos()), key.Name, id.Name, sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}
}
