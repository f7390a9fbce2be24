// Package bench is the reproducible benchmark suite behind the wormbench
// -bench flag and the CI benchmark-regression gate.
//
// Collect runs a fixed set of workloads — the open-loop stepping path at
// a light and a near-saturation operating point, the batch greedy
// simulator, and the parallel experiment harness — at fixed seeds and
// sizes, and reports ns/step and allocs/step for each. The repo commits
// the post-change numbers as BENCH_BASELINE.json; CI re-collects on every
// push and fails when ns/step regresses beyond a tolerance or allocs/step
// regresses at all.
//
// Wall-clock numbers are not portable across machines, so every report
// carries a calibration measurement: the time of a fixed pure-CPU loop on
// the same machine, taken in the same process. Compare scales the
// baseline's ns/step by the calibration ratio before applying the
// tolerance, which turns the gate into a same-machine comparison even
// when the baseline was collected elsewhere. Alloc counts come from the
// runtime's exact mallocs counter and are machine-independent (they can
// shift across Go releases, which is why CI runs the gate on the pinned
// toolchain leg only).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"wormhole/internal/core"
	"wormhole/internal/telemetry"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// Entry reports one workload.
type Entry struct {
	Name string `json:"name"`
	// Unit names what a "step" is: a flit step for simulator workloads,
	// a whole run for the harness workload.
	Unit          string  `json:"unit"`
	NsPerStep     float64 `json:"ns_per_step"`
	AllocsPerStep float64 `json:"allocs_per_step"`
	Steps         int64   `json:"steps"` // steps per repeat (measurement denominator)
}

// Report is the -bench output. Entries are ordered; names are stable.
type Report struct {
	// CalibrationNs is the best-of-repeats time of calibrate() on the
	// collecting machine, used to normalize ns/step across machines.
	CalibrationNs float64 `json:"calibration_ns"`
	Entries       []Entry `json:"entries"`
	// Telemetry is the counter snapshot from the knee-telemetry workload's
	// final repeat (wormbench -telemetry exports it). Not compared by the
	// gate.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// NumCPU is GOMAXPROCS on the collecting machine, recorded so a
	// baseline names the machine class it came from. Not compared by the
	// gate.
	NumCPU int `json:"num_cpu,omitempty"`
}

// NsTolerance is the default allowed calibration-normalized ns/step
// regression (the CI gate's 15%).
const NsTolerance = 0.15

// calibrate times a fixed pure-CPU loop (xorshift mixing, no memory
// traffic) as a machine-speed probe.
func calibrate() float64 {
	best := 1e18
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		var sum uint64
		for i := 0; i < 1<<24; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sum += x
		}
		ns := float64(time.Since(start).Nanoseconds())
		if sum == 0 { // defeat dead-code elimination
			ns++
		}
		if ns < best {
			best = ns
		}
	}
	return best
}

// workload is one benchmark: run executes it once and returns the step
// count the elapsed time is divided by. snap, when set, is called after
// the last repeat to export the workload's telemetry snapshot.
type workload struct {
	name string
	unit string
	run  func() (steps int64, err error)
	snap func() telemetry.Snapshot
}

// openLoop builds a repeatable open-loop workload on a lazily constructed
// traffic.Runner: the first repeat pays the engine's setup allocations,
// and every later repeat replays the identical run over retained storage
// with zero heap allocation — so the best-of-repeats allocs/step the gate
// records is the steady-state figure, 0.000, not the setup amortization.
func openLoop(cfg traffic.Config) func() (int64, error) {
	var runner *traffic.Runner
	return func() (int64, error) {
		if runner == nil {
			r, err := traffic.NewRunner(cfg)
			if err != nil {
				return 0, err
			}
			runner = r
		}
		res, err := runner.Run()
		if err != nil {
			return 0, err
		}
		if res.Saturated {
			return 0, fmt.Errorf("bench: workload saturated (must run at steady state)")
		}
		return int64(res.Steps), nil
	}
}

// lightConfig is the light open-loop operating point (B=4, rate 0.1).
func lightConfig() traffic.Config {
	return traffic.Config{
		Net:             traffic.NewButterflyNet(64),
		VirtualChannels: 4,
		MessageLength:   6,
		Arbitration:     vcsim.ArbAge,
		Process:         traffic.Poisson,
		Rate:            0.1,
		Pattern:         traffic.Uniform,
		Warmup:          128,
		Measure:         1024,
		Drain:           2048,
		Seed:            17,
	}
}

// kneeConfig is the near-saturation operating point (B=2, rate 0.3; the
// d=1 knee is ~0.306) shared by the knee workloads and TelemetrySmoke.
func kneeConfig() traffic.Config {
	cfg := lightConfig()
	cfg.VirtualChannels = 2
	cfg.Rate = 0.3
	cfg.Warmup = 2048
	cfg.Measure = 8192
	cfg.Drain = 32768
	cfg.MaxBacklog = 65536
	return cfg
}

// wideKneeConfig is the wide operating point: a 256-input butterfly
// near its knee (B=2 saturates just above 0.21 at this size), whose
// standing backlog keeps thousands of worms in flight every step.
func wideKneeConfig() traffic.Config {
	return traffic.Config{
		Net:             traffic.NewButterflyNet(256),
		VirtualChannels: 2,
		MessageLength:   8,
		Arbitration:     vcsim.ArbAge,
		Process:         traffic.Poisson,
		Rate:            0.20,
		Pattern:         traffic.Uniform,
		Warmup:          256,
		Measure:         1024,
		Drain:           8192,
		MaxBacklog:      1 << 16,
		Seed:            17,
	}
}

func workloads() []workload {
	openLight := lightConfig()
	openKnee := kneeConfig()
	wideKnee := wideKneeConfig()

	// Deep-buffer knee workloads: the same B=2 near-saturation operating
	// point, but with 4-flit lanes (static and shared pool) — the deep
	// engine's per-flit stepping, compression, and credit wakeups under
	// sustained backlog. d=1's knee is ~0.306, so 0.3 keeps the deep
	// architectures busy but safely unsaturated.
	deepKneeStatic := openKnee
	deepKneeStatic.LaneDepth = 4
	deepKneeShared := deepKneeStatic
	deepKneeShared.SharedPool = true

	// The knee again with hot-path counters attached (no windowed series:
	// counters must keep the steady state allocation-free). The entry's
	// delta against OpenLoopStep/knee IS the counters-on overhead, and the
	// gate ratchets it like every other entry.
	kneeTelemetry := openKnee
	met := telemetry.NewMetrics()
	kneeTelemetry.Metrics = met

	open := func(name string, cfg traffic.Config, snap func() telemetry.Snapshot) workload {
		return workload{name: name, unit: "step", run: openLoop(cfg), snap: snap}
	}
	list := []workload{
		open("OpenLoopStep/light", openLight, nil),
		open("OpenLoopStep/knee", openKnee, nil),
		open("OpenLoopStep/knee-telemetry", kneeTelemetry, met.Snapshot),
		open("OpenLoopStep/deepknee-static", deepKneeStatic, nil),
		open("OpenLoopStep/deepknee-shared", deepKneeShared, nil),
		open("OpenLoopStep/knee-wide", wideKnee, nil),
	}
	for _, b := range []int{1, 2, 4} {
		b := b
		// The workload under test is the batch simulator, not workload
		// construction: the (deterministic) problem is built once on the
		// first repeat and reused, so ns/step and allocs/step measure
		// RouteGreedy alone.
		var prob *core.Problem
		list = append(list, workload{
			name: fmt.Sprintf("SimulatorGreedy/B=%d", b),
			unit: "step",
			run: func() (int64, error) {
				if prob == nil {
					prob = core.ButterflyQRelation(128, 8, 16, 7)
				}
				res := prob.RouteGreedy(core.GreedyOptions{B: b, Policy: vcsim.ArbAge})
				return int64(res.Steps), nil
			},
		})
	}
	list = append(list, workload{
		name: "ParallelHarness/workers=8",
		unit: "run",
		run: func() (int64, error) {
			cfg := core.Config{Seed: 42, Quick: true, Workers: 8}
			for _, id := range []string{"T1", "T4", "T6"} {
				if _, err := core.Run(id, cfg); err != nil {
					return 0, err
				}
			}
			return 1, nil
		},
	})
	return list
}

// Per-workload repeat policy: at least the requested repeats, and keep
// going until the workload has run for benchFloor total (short workloads
// need many repeats before the best-of minimum converges below gate
// noise), hard-capped at benchCap repeats.
const (
	benchFloor = time.Second
	benchCap   = 64
)

// Collect runs every workload repeatedly (see the repeat policy above;
// `repeats` is the per-workload minimum) and reports best-of-repeat
// ns/step and allocs/step (minimums reject scheduler and GC noise; the
// workloads themselves are deterministic).
func Collect(repeats int) (Report, error) {
	if repeats < 1 {
		repeats = 1
	}
	rep := Report{CalibrationNs: calibrate(), NumCPU: runtime.GOMAXPROCS(0)}
	var ms runtime.MemStats
	for _, w := range workloads() {
		bestNs, bestAllocs := 1e18, 1e18
		var steps int64
		var total time.Duration
		for r := 0; r < benchCap && (r < repeats || total < benchFloor); r++ {
			runtime.ReadMemStats(&ms)
			m0 := ms.Mallocs
			start := time.Now()
			n, err := w.run()
			elapsed := time.Since(start)
			ns := float64(elapsed.Nanoseconds())
			total += elapsed
			if err != nil {
				return Report{}, fmt.Errorf("%s: %w", w.name, err)
			}
			runtime.ReadMemStats(&ms)
			allocs := float64(ms.Mallocs - m0)
			if n <= 0 {
				return Report{}, fmt.Errorf("%s: reported %d steps", w.name, n)
			}
			steps = n
			if v := ns / float64(n); v < bestNs {
				bestNs = v
			}
			if v := allocs / float64(n); v < bestAllocs {
				bestAllocs = v
			}
		}
		rep.Entries = append(rep.Entries, Entry{
			Name: w.name, Unit: w.unit,
			NsPerStep: bestNs, AllocsPerStep: bestAllocs, Steps: steps,
		})
		if w.snap != nil {
			s := w.snap()
			rep.Telemetry = &s
		}
	}
	return rep, nil
}

// TelemetrySmoke runs the knee workload once with the full observability
// surface attached — hot-path counters plus a windowed time series
// published to telemetry.Default — and returns the resulting snapshot.
// wormbench -telemetry (without -bench/-run/-all) and the CI telemetry
// smoke step use it.
func TelemetrySmoke() (telemetry.Snapshot, error) {
	cfg := kneeConfig()
	met := telemetry.NewMetrics()
	cfg.Metrics = met
	cfg.Window = 1024
	cfg.Publish = telemetry.Default
	r, err := traffic.NewRunner(cfg)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	if _, err := r.Run(); err != nil {
		return telemetry.Snapshot{}, err
	}
	s := met.Snapshot()
	s.Windows = append([]telemetry.WindowStats(nil), r.Windows()...)
	return s, nil
}

// Compare checks current against baseline and returns one message per
// regression (empty means the gate passes). ns/step is compared after
// normalizing by the calibration ratio with the given fractional
// tolerance; allocs/step regresses on any increase beyond rounding.
func Compare(baseline, current Report, nsTol float64) []string {
	var bad []string
	norm := 1.0
	if baseline.CalibrationNs > 0 && current.CalibrationNs > 0 {
		norm = current.CalibrationNs / baseline.CalibrationNs
	}
	base := make(map[string]Entry, len(baseline.Entries))
	for _, e := range baseline.Entries {
		base[e.Name] = e
	}
	for _, cur := range current.Entries {
		b, ok := base[cur.Name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		if allowed := b.NsPerStep * norm * (1 + nsTol); cur.NsPerStep > allowed {
			bad = append(bad, fmt.Sprintf(
				"%s: %.0f ns/%s exceeds baseline %.0f × calibration %.2f + %d%% = %.0f",
				cur.Name, cur.NsPerStep, cur.Unit, b.NsPerStep, norm, int(nsTol*100), allowed))
		}
		if cur.AllocsPerStep > b.AllocsPerStep+1e-6 {
			bad = append(bad, fmt.Sprintf(
				"%s: %.3f allocs/%s exceeds baseline %.3f (any allocation regression fails)",
				cur.Name, cur.AllocsPerStep, cur.Unit, b.AllocsPerStep))
		}
	}
	for _, b := range baseline.Entries {
		found := false
		for _, cur := range current.Entries {
			if cur.Name == b.Name {
				found = true
				break
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("%s: present in baseline but not measured", b.Name))
		}
	}
	return bad
}

// DeltaTable renders a baseline-vs-current comparison: per benchmark,
// the calibration-normalized baseline ns/step, the current measurement,
// the relative delta (negative = faster), and both alloc figures. CI
// prints it in the bench-gate step so a run's performance movement is
// readable from the log without downloading the BENCH.json artifact.
func DeltaTable(baseline, current Report) string {
	norm := 1.0
	if baseline.CalibrationNs > 0 && current.CalibrationNs > 0 {
		norm = current.CalibrationNs / baseline.CalibrationNs
	}
	base := make(map[string]Entry, len(baseline.Entries))
	for _, e := range baseline.Entries {
		base[e.Name] = e
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s %8s %12s %12s\n",
		"benchmark", "base ns(×cal)", "current ns", "delta", "base allocs", "cur allocs")
	for _, cur := range current.Entries {
		e, ok := base[cur.Name]
		if !ok {
			fmt.Fprintf(&b, "%-28s %14s %14.0f %8s %12s %12.3f\n",
				cur.Name, "—", cur.NsPerStep, "new", "—", cur.AllocsPerStep)
			continue
		}
		scaled := e.NsPerStep * norm
		fmt.Fprintf(&b, "%-28s %14.0f %14.0f %+7.1f%% %12.3f %12.3f\n",
			cur.Name, scaled, cur.NsPerStep, 100*(cur.NsPerStep-scaled)/scaled,
			e.AllocsPerStep, cur.AllocsPerStep)
	}
	fmt.Fprintf(&b, "[calibration ratio %.3f: baseline %.0f ns, current %.0f ns]\n",
		norm, baseline.CalibrationNs, current.CalibrationNs)
	return b.String()
}

// WriteFile writes the report as indented JSON.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile parses a report written by WriteFile.
func ReadFile(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return r, nil
}
