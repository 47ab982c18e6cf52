package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// declaration is BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"` // no bound
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b declaration
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationMatchesCode keeps BENCHMARK.json and the tables the harness
// reports from identical, and inside the limits of the benchmark contract.
func TestDeclarationMatchesCode(t *testing.T) {
	b := loadDeclaration(t)
	if !reflect.DeepEqual(b.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("command %v over paths %v, want benchmark/run.sh over benchmark", b.Command, b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness's default window is %d s", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the endToEnd table:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the perLayer table")
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d in the harness", len(b.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is declared as %q, the harness has %q", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated name %q", w.Name)
		}
		seen[w.Name] = true
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the cap is 128", n)
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or repeated name %q", d.Name)
		}
		seen[d.Name] = true
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.Unit) {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke runs every workload through both passes on small datasets and
// short windows, and checks that what is emitted is what is declared.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark, if briefly")
	}
	out := t.TempDir()
	result := filepath.Join(out, "result.json")
	if err := mainErr([]string{"-quick", "-seconds", "1", "-out", out, "-tmp", out, "-result", result}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(result)
	if err != nil {
		t.Fatal(err)
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2*len(specs) {
		t.Fatalf("%d runs, want %d", len(f.Runs), 2*len(specs))
	}
	b := loadDeclaration(t)
	for i, r := range f.Runs {
		want := b.EndToEnd
		if r.Traced {
			want = b.PerLayer
		}
		if r.Workload != b.Workloads[i%len(specs)].Name {
			t.Errorf("run %d is %s", i, r.Workload)
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("%s traced=%v: %d metrics emitted, %d declared", r.Workload, r.Traced, len(r.Metrics), len(want))
		}
		for _, d := range want {
			v, ok := r.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: metric %s = %+v (emitted %v)", r.Workload, d.Name, v, ok)
			}
			if !r.Traced && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Workload, d.Name, v.Value)
			}
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", r.Workload, r.Traced, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		if r.Traced {
			if _, err := os.Stat(filepath.Join(out, "trace-"+r.Workload+".json")); err != nil {
				t.Error(err)
			}
			if lost := r.Metrics["replica.acked_lost"].Value; lost != 0 {
				t.Errorf("%s: %v acknowledged writes lost", r.Workload, lost)
			}
		}
	}
}
