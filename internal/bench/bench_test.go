package bench

import (
	"path/filepath"
	"strings"
	"testing"

	"wormhole/internal/traffic"
)

func report(cal float64, entries ...Entry) Report {
	return Report{CalibrationNs: cal, Entries: entries}
}

func entry(name string, ns, allocs float64) Entry {
	return Entry{Name: name, Unit: "step", NsPerStep: ns, AllocsPerStep: allocs, Steps: 100}
}

func TestCompareWithinToleranceAndCalibration(t *testing.T) {
	base := report(100, entry("a", 1000, 5))
	// 10% slower on a machine the calibration says is 10% slower: fine.
	cur := report(110, entry("a", 1100, 5))
	if bad := Compare(base, cur, NsTolerance); len(bad) != 0 {
		t.Fatalf("unexpected regressions: %v", bad)
	}
	// 40% slower with the same calibration: over the 15% gate.
	cur = report(100, entry("a", 1400, 5))
	if bad := Compare(base, cur, NsTolerance); len(bad) != 1 || !strings.Contains(bad[0], "ns/step") {
		t.Fatalf("want one ns regression, got %v", bad)
	}
	// A fast machine must not mask a real regression: calibration 2x
	// faster but ns/step unchanged means the workload got ~2x slower.
	cur = report(50, entry("a", 1000, 5))
	if bad := Compare(base, cur, NsTolerance); len(bad) != 1 {
		t.Fatalf("calibration-masked regression not caught: %v", bad)
	}
}

func TestCompareAllocsStrict(t *testing.T) {
	base := report(100, entry("a", 1000, 5))
	if bad := Compare(base, report(100, entry("a", 1000, 5.5)), NsTolerance); len(bad) != 1 ||
		!strings.Contains(bad[0], "allocs") {
		t.Fatalf("alloc regression not caught: %v",
			Compare(base, report(100, entry("a", 1000, 5.5)), NsTolerance))
	}
	// Fewer allocs is progress, not a regression.
	if bad := Compare(base, report(100, entry("a", 1000, 1)), NsTolerance); len(bad) != 0 {
		t.Fatalf("alloc improvement flagged: %v", bad)
	}
}

func TestCompareMissingAndNewEntries(t *testing.T) {
	base := report(100, entry("a", 1000, 5), entry("gone", 10, 0))
	cur := report(100, entry("a", 1000, 5), entry("new", 10, 0))
	bad := Compare(base, cur, NsTolerance)
	if len(bad) != 1 || !strings.Contains(bad[0], "gone") {
		t.Fatalf("missing-entry detection failed: %v", bad)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := report(123.5, entry("a", 1000, 5), entry("b", 2, 0))
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CalibrationNs != want.CalibrationNs || len(got.Entries) != len(want.Entries) {
		t.Fatalf("round trip mangled the report: %+v", got)
	}
	for i := range want.Entries {
		if got.Entries[i] != want.Entries[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got.Entries[i], want.Entries[i])
		}
	}
}

// TestCollectSmoke runs the real suite once (single repeat) and sanity-
// checks the shape: every workload present with positive measurements,
// and a self-comparison that passes the gate.
func TestCollectSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("collect is seconds-long; skipped in -short")
	}
	rep, err := Collect(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CalibrationNs <= 0 {
		t.Fatal("no calibration measurement")
	}
	want := []string{
		"OpenLoopStep/light", "OpenLoopStep/knee", "OpenLoopStep/knee-telemetry",
		"OpenLoopStep/deepknee-static", "OpenLoopStep/deepknee-shared",
		"OpenLoopStep/knee-wide",
		"SimulatorGreedy/B=1", "SimulatorGreedy/B=2", "SimulatorGreedy/B=4",
		"ParallelHarness/workers=8",
	}
	if rep.NumCPU < 1 {
		t.Errorf("report carries NumCPU %d", rep.NumCPU)
	}
	if len(rep.Entries) != len(want) {
		t.Fatalf("got %d entries, want %d", len(rep.Entries), len(want))
	}
	for i, name := range want {
		e := rep.Entries[i]
		if e.Name != name {
			t.Errorf("entry %d: %q, want %q", i, e.Name, name)
		}
		if e.NsPerStep <= 0 || e.Steps <= 0 || e.AllocsPerStep < 0 {
			t.Errorf("%s: degenerate measurement %+v", name, e)
		}
	}
	if bad := Compare(rep, rep, NsTolerance); len(bad) != 0 {
		t.Errorf("self-comparison regressed: %v", bad)
	}
}

func TestDeltaTable(t *testing.T) {
	base := Report{
		CalibrationNs: 100,
		Entries: []Entry{
			{Name: "w1", Unit: "step", NsPerStep: 1000, AllocsPerStep: 2, Steps: 10},
		},
	}
	cur := Report{
		CalibrationNs: 200, // current machine half as fast: baseline scales ×2
		Entries: []Entry{
			{Name: "w1", Unit: "step", NsPerStep: 1500, AllocsPerStep: 0, Steps: 10},
			{Name: "w2", Unit: "step", NsPerStep: 50, AllocsPerStep: 1, Steps: 5},
		},
	}
	out := DeltaTable(base, cur)
	for _, want := range []string{"w1", "w2", "new", "-25.0%", "2000", "calibration ratio 2.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q:\n%s", want, out)
		}
	}
}

// TestWideKneeWorkloadShape verifies the wide-knee operating point is
// usable as a benchmark: unsaturated (openLoop rejects saturated runs).
func TestWideKneeWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 256-input knee; skipped in -short")
	}
	res, err := traffic.Run(wideKneeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatal("wide-knee operating point saturated; the bench workload would error")
	}
}
