package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is the part of ../BENCHMARK.json the vocabulary must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricVocabulary checks that every metric name is well formed,
// unique and carries a unit, and that BENCHMARK.json declares exactly
// the workloads and metrics the benchmark prints.
func TestMetricVocabulary(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", s.name)
		}
		if !unitRE.MatchString(s.unit) {
			t.Errorf("metric %s has unit %q", s.name, s.unit)
		}
		if seen[s.name] {
			t.Errorf("metric %s declared twice", s.name)
		}
		seen[s.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	for _, c := range []struct {
		specs    []metricSpec
		declared []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
	}{{endToEnd, bf.EndToEnd}, {perLayer, bf.PerLayer}} {
		if len(c.specs) != len(c.declared) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark prints %d", len(c.declared), len(c.specs))
			continue
		}
		for i, s := range c.specs {
			if d := c.declared[i]; d.Name != s.name || d.Unit != s.unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), the benchmark prints %s (%s)", i, d.Name, d.Unit, s.name, s.unit)
			}
		}
	}
}

func TestRenderRequiresEndToEnd(t *testing.T) {
	if _, err := render(endToEnd, map[string]float64{"setup_s": 1}, true); err == nil {
		t.Fatal("render accepted a result missing end-to-end metrics")
	}
	m, err := render(perLayer, map[string]float64{}, false)
	if err != nil || len(m) != len(perLayer) {
		t.Fatalf("render(perLayer) = %d metrics, %v", len(m), err)
	}
}

// smallSizes keep a workload repetition under a second or so.
var smallSizes = sizes{fuzzExecs: 20_000, trapExecs: 4_000}

// TestWorkloads runs every workload at a small size, untraced and
// traced. Each traced run compares its corpora and reports with the
// untraced repetitions' and records a failed check if the timing
// wrappers changed a byte; every check must pass, every end-to-end
// metric must be positive, and every per-layer metric must be measured
// by at least one workload.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	measured := map[string]bool{}
	for _, name := range sortedWorkloads() {
		for _, trace := range []bool{false, true} {
			o, err := workloads[name](runConfig{seed: 3, budget: time.Second, trace: trace,
				size: smallSizes, tmp: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			for _, p := range o.problems {
				t.Errorf("%s trace=%v: %s", name, trace, p)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, o.attempted, o.failed)
			}
			if !trace {
				o.e2e["peak_rss_mb"], o.e2e["ok_frac"] = 1, 1 // filled in by run
				for _, s := range endToEnd {
					if v, ok := o.e2e[s.name]; !ok || v <= 0 {
						t.Errorf("%s: end-to-end %s = %v", name, s.name, v)
					}
				}
				continue
			}
			for n := range o.layers {
				measured[n] = true
			}
		}
	}
	for _, s := range perLayer {
		if !measured[s.name] {
			t.Errorf("no workload measures %s", s.name)
		}
	}
}

func sortedWorkloads() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
