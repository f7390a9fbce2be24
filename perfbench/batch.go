package main

// The batch workload: offline q-relations on the 256-input butterfly.
// A job builds one problem, then at each B builds and verifies the
// Theorem 2.1.6 schedule and routes the set greedily; it ends with a
// mid-run checkpoint of the B=2 greedy simulation (Sim.Snapshot written
// to a file, restored with RestoreSim and drained).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wormhole/internal/core"
	"wormhole/internal/rng"
	"wormhole/internal/schedule"
	"wormhole/internal/telemetry"
	"wormhole/internal/vcsim"
)

const (
	batchN, batchQ, batchL = 256, 8, 32
	batchCkptB             = 2  // the B whose greedy run is checkpointed
	batchPauseAt           = 64 // flit step of the checkpoint
)

var batchBs = []int{1, 2, 4, 8}

// batchJob is what one q-relation measured; its simulation time covers
// schedule build, verify and greedy runs.
type batchJob struct {
	jobFigures
	steps, snapBytes, refineSteps int
	ok, ckptOK                    bool
	counters                      telemetry.Snapshot
}

func runBatchJob(o *opts, tr *tracer, jid, idx int) (batchJob, error) {
	var j batchJob
	var met *telemetry.Metrics
	if tr != nil {
		met = telemetry.NewMetrics()
	}
	seed := uint64(2000 + idx)
	start := time.Now()
	root := tr.begin("bench.job", -1, jid)
	s := tr.begin("core.problem_build", root, jid)
	p := core.ButterflyQRelation(batchN, batchQ, batchL, seed)
	tr.end(s)
	j.setup = time.Since(start).Seconds()

	j.ok = true
	var ckptSteps int
	for _, b := range batchBs {
		t0 := time.Now()
		s = tr.begin("schedule.build", root, jid)
		sched, err := schedule.Build(p.Set, schedule.Options{B: b, ConstantScale: core.DefaultConstantScale}, rng.New(seed*31+uint64(b)))
		tr.end(s)
		if err != nil {
			return j, fmt.Errorf("schedule B=%d: %w", b, err)
		}
		// VerifyObserved is one vcsim.Run of the schedule plus its checks,
		// so its time is the engine's.
		s = tr.begin("vcsim.verify", root, jid)
		vres, verr := schedule.VerifyObserved(p.Set, sched, met)
		tr.end(s)
		s = tr.begin("vcsim.greedy", root, jid)
		gres := p.RouteGreedy(core.GreedyOptions{B: b, Policy: vcsim.ArbAge, Metrics: met})
		tr.end(s)
		j.sim += time.Since(t0).Seconds()
		j.msgs += vres.Delivered + gres.Delivered
		j.steps += vres.Steps + gres.Steps
		j.refineSteps += len(sched.Steps)
		got := batchGolden{NumClasses: sched.NumClasses, LengthUB: sched.LengthUB, GreedySteps: gres.Steps}
		s = tr.begin("bench.check", root, jid)
		if verr != nil || !gres.AllDelivered() || !check(o.check, o.check.g.Batch, goldenKey(idx, fmt.Sprintf("B=%d", b)), got) {
			j.ok = false
		}
		tr.end(s)
		if b == batchCkptB {
			ckptSteps = gres.Steps
		}
	}

	// The checkpointed rerun must end exactly where the uninterrupted
	// greedy run did.
	cfg := vcsim.Config{VirtualChannels: batchCkptB, Arbitration: vcsim.ArbAge, MaxSteps: 1 << 20}
	s = tr.begin("vcsim.step", root, jid)
	sim, err := vcsim.NewSim(p.Set.G, cfg)
	if err != nil {
		return j, err
	}
	for _, m := range p.Set.Msgs {
		if _, err := sim.Inject(m, 0); err != nil {
			return j, err
		}
	}
	for sim.Now() < batchPauseAt {
		if err := sim.Step(); err != nil {
			return j, fmt.Errorf("step to checkpoint: %w", err)
		}
	}
	tr.end(s)
	snapPath := filepath.Join(o.work, "batch.snap")
	s = tr.begin("vcsim.snapshot", root, jid)
	var buf bytes.Buffer
	if err := sim.Snapshot(&buf); err != nil {
		return j, err
	}
	if err := os.WriteFile(snapPath, buf.Bytes(), 0o644); err != nil {
		return j, err
	}
	j.snapBytes = buf.Len()
	tr.end(s)
	s = tr.begin("vcsim.restore", root, jid)
	blob, err := os.ReadFile(snapPath)
	if err != nil {
		return j, err
	}
	restored, err := vcsim.RestoreSim(p.Set.G, cfg, bytes.NewReader(blob))
	tr.end(s)
	if err != nil {
		return j, err
	}
	s = tr.begin("vcsim.drain", root, jid)
	restored.Drain()
	res := restored.Result()
	tr.end(s)
	j.ckptOK = res.AllDelivered() && res.Steps == ckptSteps
	tr.end(root)
	j.took = time.Since(start).Seconds()
	if met != nil {
		j.counters = met.Snapshot()
	}
	return j, nil
}

// runBatch is one pass of the batch workload.
func runBatch(o *opts, tr *tracer) (report, error) {
	rep := report{}
	ord := order(o.seed)
	var jobs []batchJob
	w0, err1 := wcharBytes(os.Getpid())
	cpu0, err2 := cpuSeconds(os.Getpid())
	if err := errors.Join(err1, err2); err != nil {
		return rep, err
	}
	deadline := time.Now().Add(o.seconds)
	for c := 0; ; c++ {
		idx := ord[c%poolSize]
		if err := resetPeakRSS(); err != nil {
			return rep, err
		}
		j, err := runBatchJob(o, tr, len(jobs), idx)
		if err != nil {
			return rep, fmt.Errorf("batch %d: %w", idx, err)
		}
		if j.rss, err = peakRSSMB(os.Getpid()); err != nil {
			return rep, err
		}
		// A job is two checked operations: the schedule/greedy goldens and
		// the checkpoint round trip.
		rep.attempted += 2
		if !j.ok {
			rep.failed++
		}
		if !j.ckptOK {
			rep.failed++
		}
		jobs = append(jobs, j)
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
		m := layerTemplate()
		first := jobs[0]
		verifyGreedy := tr.perJob("vcsim.verify", "vcsim.greedy")
		steps := 0
		for _, j := range jobs {
			steps += j.steps
		}
		set(m, "vcsim.run_s", median(verifyGreedy))
		set(m, "vcsim.ns_per_step", sum(verifyGreedy)*1e9/float64(steps))
		set(m, "vcsim.snapshot_s", median(tr.perJob("vcsim.snapshot")))
		set(m, "vcsim.restore_s", median(tr.perJob("vcsim.restore")))
		set(m, "vcsim.snapshot_bytes", float64(first.snapBytes))
		set(m, "schedule.build_s", median(tr.perJob("schedule.build")))
		set(m, "schedule.refine_steps", float64(first.refineSteps))
		set(m, "core.problem_build_s", median(tr.perJob("core.problem_build")))
		set(m, "bench.cpu_s_per_job", (cpu1-cpu0)/float64(len(jobs)))
		setCounters(m, []telemetry.Snapshot{first.counters})
		rep.layer = m
	}
	return rep, nil
}
