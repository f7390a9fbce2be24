package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"wormhole/internal/traffic"
)

// benchSpec is the part of ../BENCHMARK.json the tests check against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// daemonBinary builds wormholed once for the tests that need it.
func daemonBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "wormholed")
	out, err := exec.Command("go", "build", "-o", bin, "wormhole/cmd/wormholed").CombinedOutput()
	if err != nil {
		t.Fatalf("building wormholed: %v\n%s", err, out)
	}
	return bin
}

// smokeOpts runs zero seconds: one cycle of the workload's points per
// pass, one job per daemon client.
func smokeOpts(t *testing.T, workload, daemonBin string, g *goldens) *opts {
	return &opts{
		workload:  workload,
		seed:      7,
		check:     &checker{g: g},
		work:      filepath.Join(t.TempDir(), "run"),
		daemonBin: daemonBin,
	}
}

func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	if len(spec.PerLayer) != len(layerMetricUnits) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, program %d", len(spec.PerLayer), len(layerMetricUnits))
	}
	for i, m := range spec.PerLayer {
		if l := layerMetricUnits[i]; m.Name != l.name || m.Unit != l.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, l.name, l.unit)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at smoke size, untraced and
// traced, and requires every declared metric with its unit, no failed
// operation, and non-zero end-to-end figures.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	bin := daemonBinary(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(smokeOpts(t, w, bin, g), traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongGoldenFails plants one wrong golden value per workload and
// requires the run to report failed operations.
func TestWrongGoldenFails(t *testing.T) {
	bin := daemonBinary(t)
	for _, w := range workloads {
		g, err := loadGoldens()
		if err != nil {
			t.Fatal(err)
		}
		// Smoke runs use the seed's first pool entry.
		idx := order(7)[0]
		switch w {
		case "knee":
			corrupt(g.Knee, goldenKey(idx, "B=1"), func(r *traffic.Result) { r.Steps++ })
		case "deepknee":
			corrupt(g.DeepKnee, goldenKey(idx, "static"), func(r *traffic.Result) { r.Accepted += 1e-9 })
		case "batch":
			corrupt(g.Batch, goldenKey(idx, "B=4"), func(b *batchGolden) { b.GreedySteps++ })
		case "daemon":
			corrupt(g.Daemon, strconv.Itoa(idx), func(h *string) { *h = "x" + (*h)[1:] })
		}
		res, err := runOne(smokeOpts(t, w, bin, g), false, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong golden went unnoticed (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
}

func corrupt[T any](m map[string]T, key string, f func(*T)) {
	v, ok := m[key]
	if !ok {
		panic("no golden " + key)
	}
	f(&v)
	m[key] = v
}

func TestOrderIsASeededPermutation(t *testing.T) {
	a, b := order(3), order(3)
	if !slices.Equal(a, b) {
		t.Fatalf("order(3) differs between calls: %v vs %v", a, b)
	}
	s := slices.Clone(a)
	slices.Sort(s)
	for i, v := range s {
		if v != i {
			t.Fatalf("order(3) = %v is not a permutation of 0..%d", a, poolSize-1)
		}
	}
	if slices.Equal(order(3), order(4)) {
		t.Errorf("seeds 3 and 4 give the same order")
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.job", Start: 0, End: 100, Parent: -1},
		{Name: "traffic.run", Start: 10, End: 60, Parent: 0},
		{Name: "vcsim.step", Start: 20, End: 30, Parent: 1},
		{Name: "traffic.snapshot", Start: 70, End: 90, Parent: 0},
	}}
	got := tr.selfSecondsByLayer()
	want := map[string]float64{"bench": 30e-9, "traffic": 60e-9, "vcsim": 10e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %g, want %g", k, got[k], v)
		}
	}
}
