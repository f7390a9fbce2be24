// Command wormbench runs the paper-reproduction experiments and prints
// their result tables, and doubles as the benchmark harness behind the
// CI regression gate.
//
// Usage:
//
//	wormbench -list
//	wormbench -run T1 [-seed 42] [-quick] [-trials 5] [-workers 8]
//	wormbench -all
//	wormbench -bench [-benchout BENCH.json] [-baseline BENCH_BASELINE.json] [-benchreps 5]
//	wormbench ... [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// Experiment IDs are catalogued in README.md (F1, F2 for the figures;
// T1–T11 for the theorem/remark reproductions; T12 for the open-loop
// steady-state traffic study; T13 for the buffer-architecture study —
// lane depth and shared pools; A1–A5 for the design ablations). -workers
// fans the experiment's independent jobs across a worker pool
// (0 = GOMAXPROCS); tables are byte-identical for any value.
//
// -bench runs the fixed benchmark suite (see internal/bench) and writes
// ns/step and allocs/step per workload to -benchout. With -baseline it
// additionally compares against a committed report and exits nonzero on
// a >15% calibration-normalized ns/step regression or any allocs/step
// regression — the CI perf gate.
//
// -cpuprofile and -memprofile write pprof profiles covering whatever the
// invocation ran — an experiment or the benchmark suite — so performance
// work reproduces from the committed harness instead of ad-hoc patches:
//
//	go run ./cmd/wormbench -bench -cpuprofile cpu.prof
//	go tool pprof -top cpu.prof
//
// -telemetry FILE attaches hot-path counters to whatever the invocation
// runs and writes the resulting snapshot as JSON: with -run/-all every
// simulator feeds one aggregate; with -bench the knee-telemetry
// workload's snapshot is exported; alone it runs the knee smoke workload
// with counters and a windowed time series. -http ADDR additionally
// serves the latest published snapshot at /metrics and the standard
// net/http/pprof handlers at /debug/pprof for live inspection.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"wormhole/internal/bench"
	"wormhole/internal/core"
	"wormhole/internal/telemetry"
)

func main() {
	// Defers (the profile writers below) must run before the process
	// exits, including on gate failures — os.Exit skips them — so the
	// real work happens in run() and main only converts its code.
	os.Exit(run())
}

func run() int {
	var (
		list      = flag.Bool("list", false, "list available experiments")
		run       = flag.String("run", "", "experiment ID to run (e.g. T1)")
		all       = flag.Bool("all", false, "run every experiment")
		seed      = flag.Uint64("seed", 42, "experiment seed")
		quick     = flag.Bool("quick", false, "shrink sweeps to smoke-test scale")
		trials    = flag.Int("trials", 0, "override trial count (0 = default)")
		workers   = flag.Int("workers", 0, "parallel harness workers (0 = GOMAXPROCS)")
		scale     = flag.Int("scale", 0, "network-size override for scale experiments (T14, T15; 0 = default)")
		csvOut    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		doBench   = flag.Bool("bench", false, "run the benchmark suite instead of experiments")
		benchOut  = flag.String("benchout", "BENCH.json", "benchmark report output path")
		baseline  = flag.String("baseline", "", "baseline report to gate against (e.g. BENCH_BASELINE.json)")
		benchReps = flag.Int("benchreps", 5, "benchmark repeats (best-of)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile of the run to this file")
		telOut    = flag.String("telemetry", "", "write a telemetry snapshot JSON to this file (attaches counters to whatever runs; alone it runs the knee smoke workload)")
		httpAddr  = flag.String("http", "", "serve live telemetry (/metrics) and net/http/pprof (/debug/pprof) on this address")
		ckptDir   = flag.String("checkpoint", "", "memoize completed harness jobs under this directory so an interrupted run resumes on re-invocation (long offline sweeps; tables are byte-identical with or without it)")
	)
	flag.Parse()

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: http:", err)
			return 1
		}
		defer ln.Close()
		http.Handle("/metrics", telemetry.Default)
		fmt.Fprintf(os.Stderr, "wormbench: serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
		go http.Serve(ln, nil) //nolint:errcheck -- best-effort diagnostics server
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wormbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the final allocation state
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "wormbench: memprofile:", err)
			}
		}()
	}

	cfg := core.Config{Seed: *seed, Quick: *quick, Trials: *trials, Workers: *workers, Scale: *scale}
	if *telOut != "" {
		cfg.Telemetry = telemetry.NewAggregate()
	}

	switch {
	case *doBench:
		return runBench(*benchOut, *baseline, *benchReps, *telOut)
	case *list:
		for _, e := range core.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
	case *all:
		for _, e := range core.Experiments() {
			if code := runOne(e.ID, cfg, *csvOut, *ckptDir); code != 0 {
				return code
			}
		}
		return writeTelemetry(*telOut, cfg.Telemetry)
	case *run != "":
		if code := runOne(*run, cfg, *csvOut, *ckptDir); code != 0 {
			return code
		}
		return writeTelemetry(*telOut, cfg.Telemetry)
	case *telOut != "":
		// Standalone -telemetry: run the knee smoke workload with the full
		// observability surface and export its snapshot (the CI smoke step).
		snap, err := bench.TelemetrySmoke()
		if err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: telemetry:", err)
			return 1
		}
		if err := telemetry.WriteSnapshotFile(*telOut, snap); err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: telemetry:", err)
			return 1
		}
		fmt.Printf("telemetry: knee smoke snapshot (steps=%d, %d windows) written to %s\n",
			snap.Counter("steps"), len(snap.Windows), *telOut)
	default:
		flag.Usage()
		return 2
	}
	return 0
}

// writeTelemetry publishes and exports the aggregate collected across the
// experiments just run. A nil aggregate (no -telemetry flag) is a no-op.
func writeTelemetry(path string, agg *telemetry.Aggregate) int {
	if agg == nil {
		return 0
	}
	snap := agg.Snapshot()
	telemetry.Default.Publish(snap)
	if err := telemetry.WriteSnapshotFile(path, snap); err != nil {
		fmt.Fprintln(os.Stderr, "wormbench: telemetry:", err)
		return 1
	}
	fmt.Printf("telemetry: aggregate of %d registries (steps=%d) written to %s\n",
		agg.Len(), snap.Counter("steps"), path)
	return 0
}

func runBench(out, baselinePath string, reps int, telOut string) int {
	start := time.Now()
	rep, err := bench.Collect(reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormbench: bench:", err)
		return 1
	}
	if telOut != "" && rep.Telemetry != nil {
		telemetry.Default.Publish(*rep.Telemetry)
		if err := telemetry.WriteSnapshotFile(telOut, *rep.Telemetry); err != nil {
			fmt.Fprintln(os.Stderr, "wormbench: telemetry:", err)
			return 1
		}
		fmt.Printf("telemetry: knee-telemetry snapshot written to %s\n", telOut)
	}
	for _, e := range rep.Entries {
		fmt.Printf("%-28s %12.0f ns/%s %10.3f allocs/%s\n",
			e.Name, e.NsPerStep, e.Unit, e.AllocsPerStep, e.Unit)
	}
	fmt.Printf("[calibration %.0f ns; %d repeats; done in %v]\n",
		rep.CalibrationNs, reps, time.Since(start).Round(time.Millisecond))
	if err := rep.WriteFile(out); err != nil {
		fmt.Fprintln(os.Stderr, "wormbench: bench:", err)
		return 1
	}
	if baselinePath == "" {
		return 0
	}
	base, err := bench.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormbench: bench:", err)
		return 1
	}
	fmt.Print(bench.DeltaTable(base, rep))
	if bad := bench.Compare(base, rep, bench.NsTolerance); len(bad) > 0 {
		fmt.Fprintln(os.Stderr, "wormbench: benchmark regressions against", baselinePath)
		for _, msg := range bad {
			fmt.Fprintln(os.Stderr, "  REGRESSION:", msg)
		}
		return 1
	}
	fmt.Printf("bench gate: no regressions against %s\n", baselinePath)
	return 0
}

func runOne(id string, cfg core.Config, csvOut bool, ckptDir string) int {
	if ckptDir != "" {
		// A Checkpoint must be fresh per experiment run; keying the store
		// by experiment ID keeps -all runs resumable per experiment.
		cfg.Checkpoint = &core.Checkpoint{Store: core.DirStore{Dir: filepath.Join(ckptDir, id)}}
	}
	start := time.Now()
	tables, err := core.Run(id, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormbench:", err)
		return 1
	}
	for _, t := range tables {
		if csvOut {
			fmt.Printf("# %s\n", t.Title())
			if err := t.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "wormbench: csv:", err)
				return 1
			}
			fmt.Println()
			continue
		}
		fmt.Println(t)
	}
	if !csvOut {
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
