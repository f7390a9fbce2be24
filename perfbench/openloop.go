package main

// The open-loop workloads, knee and deepknee: the traffic.Runner on the
// 64-input butterfly under Poisson uniform load with age arbitration,
// each point paused mid-measure for a checkpoint (Runner.Snapshot written
// to a file, read back and restored with RestoreRunner) and then finished.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"wormhole/internal/telemetry"
	"wormhole/internal/traffic"
	"wormhole/internal/vcsim"
)

// openPoint is one sweep point; a job runs one point.
type openPoint struct {
	name   string // golden key suffix
	b, d   int
	shared bool
	rate   float64
}

// The rates sit at 0.9× the T12 saturation rate of each B (0.113, 0.306,
// 0.757): the knee of the latency-vs-load curve. deepknee keeps the B=2
// traffic and swaps in 4-flit lanes, static and pooled.
var (
	kneePoints = []openPoint{
		{"B=1", 1, 1, false, 0.9 * 0.113},
		{"B=2", 2, 1, false, 0.9 * 0.306},
		{"B=4", 4, 1, false, 0.9 * 0.757},
	}
	deepKneePoints = []openPoint{
		{"static", 2, 4, false, 0.9 * 0.306},
		{"shared", 2, 4, true, 0.9 * 0.306},
	}
)

// Window geometry in flit steps; the checkpoint is taken mid-measure.
const (
	openWarmup  = 512
	openMeasure = 2048
	openDrain   = 8192
	openPauseAt = openWarmup + openMeasure/2
)

var errPause = errors.New("perfbench: checkpoint pause")

func openConfig(net *traffic.Network, p openPoint, idx int) traffic.Config {
	return traffic.Config{
		Net:             net,
		VirtualChannels: p.b,
		LaneDepth:       p.d,
		SharedPool:      p.shared,
		MessageLength:   6,
		Arbitration:     vcsim.ArbAge,
		Process:         traffic.Poisson,
		Rate:            p.rate,
		Pattern:         traffic.Uniform,
		Warmup:          openWarmup,
		Measure:         openMeasure,
		Drain:           openDrain,
		MaxBacklog:      1 << 16,
		Seed:            uint64(1000+idx)*7919 + uint64(p.b*10+p.d),
	}
}

// openJob is what one point measured.
type openJob struct {
	jobFigures
	steps, snapBytes, allocs int
	ok                       bool
	counters                 telemetry.Snapshot
}

// allocObjects reads the runtime's cumulative heap-allocation count.
func allocObjects() int {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return int(s[0].Value.Uint64())
}

// runOpenPoint runs one point as job jid: it checks the paused live
// runner's result and returns the restored runner, still paused at the
// checkpoint, for the caller to resume or drop.
func runOpenPoint(o *opts, tr *tracer, jid, idx int, p openPoint, golden map[string]traffic.Result) (openJob, *traffic.Runner, error) {
	var j openJob
	var met *telemetry.Metrics
	if tr != nil {
		met = telemetry.NewMetrics()
	}
	snapPath := filepath.Join(o.work, "open.snap")

	start := time.Now()
	root := tr.begin("bench.job", -1, jid)
	s := tr.begin("traffic.new_net", root, jid)
	net := traffic.NewButterflyNet(64)
	tr.end(s)
	cfg := openConfig(net, p, idx)
	cfg.Metrics = met
	paused := false
	cfg.OnStep = func(step int) error {
		if step == openPauseAt && !paused {
			paused = true
			return errPause
		}
		return nil
	}
	s = tr.begin("traffic.new_runner", root, jid)
	r, err := traffic.NewRunner(cfg)
	tr.end(s)
	if err != nil {
		return j, nil, err
	}
	j.setup = time.Since(start).Seconds()

	a0 := 0
	if tr != nil {
		a0 = allocObjects()
	}
	s = tr.begin("traffic.run", root, jid)
	t0 := time.Now()
	_, err = r.Run()
	j.sim = time.Since(t0).Seconds()
	tr.end(s)
	if !errors.Is(err, errPause) {
		return j, nil, fmt.Errorf("run did not pause at step %d: %v", openPauseAt, err)
	}
	if tr != nil {
		j.allocs = allocObjects() - a0
	}

	s = tr.begin("traffic.snapshot", root, jid)
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		return j, nil, err
	}
	if err := os.WriteFile(snapPath, buf.Bytes(), 0o644); err != nil {
		return j, nil, err
	}
	j.snapBytes = buf.Len()
	tr.end(s)

	s = tr.begin("traffic.restore", root, jid)
	blob, err := os.ReadFile(snapPath)
	if err != nil {
		return j, nil, err
	}
	// The restored runner must not share the live runner's hooks or
	// counter registry: restoring overwrites the registry's contents.
	rcfg := cfg
	rcfg.OnStep, rcfg.Metrics = nil, nil
	restored, err := traffic.RestoreRunner(rcfg, bytes.NewReader(blob))
	tr.end(s)
	if err != nil {
		return j, nil, err
	}

	if tr != nil {
		a0 = allocObjects()
	}
	s = tr.begin("traffic.resume", root, jid)
	t0 = time.Now()
	res, err := r.Resume()
	j.sim += time.Since(t0).Seconds()
	tr.end(s)
	if err != nil {
		return j, nil, err
	}
	if tr != nil {
		j.allocs += allocObjects() - a0
	}

	s = tr.begin("bench.check", root, jid)
	j.ok = check(o.check, golden, goldenKey(idx, p.name), res)
	tr.end(s)
	tr.end(root)
	j.took = time.Since(start).Seconds()
	j.msgs, j.steps = res.DeliveredMeasure, res.Steps
	if met != nil {
		j.counters = met.Snapshot()
	}
	return j, restored, nil
}

// runOpen is one pass of an open-loop workload.
func runOpen(o *opts, tr *tracer, points []openPoint, golden map[string]traffic.Result) (report, error) {
	rep := report{}
	ord := order(o.seed)
	var jobs []openJob
	var cycle []openJob // the first input's points: exact per-layer counts

	w0, err1 := wcharBytes(os.Getpid())
	cpu0, err2 := cpuSeconds(os.Getpid())
	if err := errors.Join(err1, err2); err != nil {
		return rep, err
	}
	deadline := time.Now().Add(o.seconds)
	for c := 0; ; c++ {
		idx := ord[c%poolSize]
		for pi, p := range points {
			// One point per run also resumes its restored runner, which
			// must finish exactly as the uninterrupted golden run did.
			resume := c == 0 && pi == 0
			if err := resetPeakRSS(); err != nil {
				return rep, err
			}
			j, restored, err := runOpenPoint(o, tr, len(jobs), idx, p, golden)
			if err != nil {
				return rep, fmt.Errorf("%d/%s: %w", idx, p.name, err)
			}
			if j.rss, err = peakRSSMB(os.Getpid()); err != nil {
				return rep, err
			}
			rep.attempted++
			if !j.ok {
				rep.failed++
			}
			if resume {
				res, err := restored.Resume()
				rep.attempted++
				if err != nil || !check(o.check, golden, goldenKey(idx, p.name), res) {
					rep.failed++
				}
			}
			jobs = append(jobs, j)
			if c == 0 {
				cycle = append(cycle, j)
			}
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	w1, err1 := wcharBytes(os.Getpid())
	cpu1, err2 := cpuSeconds(os.Getpid())
	if err := errors.Join(err1, err2); err != nil {
		return rep, err
	}

	figs := make([]jobFigures, len(jobs))
	for i, j := range jobs {
		figs[i] = j.jobFigures
	}
	rep.e2e = inProcessMetrics(figs, w1-w0)
	if tr != nil {
		rep.layer = openLayerMetrics(tr, jobs, cycle)
		set(rep.layer, "bench.cpu_s_per_job", (cpu1-cpu0)/float64(len(jobs)))
	}
	return rep, nil
}

// openLayerMetrics derives the traffic.* and vcsim.* figures of a traced
// pass. Counts cover the first input's points, so they repeat exactly
// for a seed.
func openLayerMetrics(tr *tracer, jobs, cycle []openJob) map[string]metric {
	m := layerTemplate()
	var steps, allocs, snapBytes int
	var simS []float64
	for _, j := range jobs {
		steps += j.steps
		allocs += j.allocs
		simS = append(simS, j.sim)
	}
	for _, j := range cycle {
		snapBytes += j.snapBytes
	}
	set(m, "traffic.new_runner_s", median(tr.perJob("traffic.new_net", "traffic.new_runner")))
	set(m, "traffic.run_s", median(tr.perJob("traffic.run", "traffic.resume")))
	set(m, "traffic.ns_per_step", sum(simS)*1e9/float64(steps))
	set(m, "traffic.allocs_per_step", float64(allocs)/float64(steps))
	set(m, "traffic.snapshot_s", median(tr.perJob("traffic.snapshot")))
	set(m, "traffic.restore_s", median(tr.perJob("traffic.restore")))
	set(m, "traffic.snapshot_bytes", float64(snapBytes))
	counters := make([]telemetry.Snapshot, len(cycle))
	for i, j := range cycle {
		counters[i] = j.counters
	}
	setCounters(m, counters)
	return m
}
