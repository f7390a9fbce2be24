package main

// The per-layer metrics of a traced pass. Every traced run prints all of
// them; a layer the workload never calls reports 0.

import "wormhole/internal/telemetry"

// layerMetricUnits lists every per-layer metric with its unit, in the
// order BENCHMARK.json declares them.
var layerMetricUnits = []struct{ name, unit string }{
	{"traffic.new_runner_s", "s"},
	{"traffic.run_s", "s"},
	{"traffic.ns_per_step", "ns"},
	{"traffic.allocs_per_step", "count"},
	{"traffic.snapshot_s", "s"},
	{"traffic.restore_s", "s"},
	{"traffic.snapshot_bytes", "bytes"},
	{"vcsim.steps", "count"},
	{"vcsim.advances", "count"},
	{"vcsim.parks", "count"},
	{"vcsim.wakes", "count"},
	{"vcsim.spurious_wakes", "count"},
	{"vcsim.fast_forwards", "count"},
	{"vcsim.stall_lane_credit", "count"},
	{"vcsim.stall_bandwidth", "count"},
	{"vcsim.stall_head_of_line", "count"},
	{"vcsim.stall_shared_pool", "count"},
	{"vcsim.useful_wake_ratio", "ratio"},
	{"vcsim.arena_capacity", "count"},
	{"vcsim.run_s", "s"},
	{"vcsim.ns_per_step", "ns"},
	{"vcsim.snapshot_s", "s"},
	{"vcsim.restore_s", "s"},
	{"vcsim.snapshot_bytes", "bytes"},
	{"schedule.build_s", "s"},
	{"schedule.refine_steps", "count"},
	{"core.problem_build_s", "s"},
	{"wormholed.post_s", "s"},
	{"wormholed.run_s", "s"},
	{"wormholed.result_s", "s"},
	{"wormholed.queue_wait_s", "s"},
	{"wormholed.cpu_s_per_job", "s"},
	{"wormholed.polls_per_job", "count"},
	{"wormholed.rejects", "count"},
	{"bench.cpu_s_per_job", "s"},
	{"bench.self_s_per_job", "s"},
	{"traffic.self_s_per_job", "s"},
	{"vcsim.self_s_per_job", "s"},
	{"schedule.self_s_per_job", "s"},
	{"core.self_s_per_job", "s"},
	{"wormholed.self_s_per_job", "s"},
	{"trace.overhead_s_per_job", "s"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// layerTemplate returns every per-layer metric at 0.
func layerTemplate() map[string]metric {
	m := make(map[string]metric, len(layerMetricUnits))
	for _, l := range layerMetricUnits {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

// set overwrites the value of a metric layerTemplate declared.
func set(m map[string]metric, name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// setCounters sums the vcsim counters of the given registries and takes
// the largest arena capacity any of them sampled.
func setCounters(m map[string]metric, snaps []telemetry.Snapshot) {
	var arena float64
	total := map[string]int64{}
	for _, s := range snaps {
		for _, c := range s.Counters {
			total[c.Name] += c.Value
		}
		arena = max(arena, float64(s.Arena.Capacity))
	}
	for _, name := range []string{
		"steps", "advances", "parks", "wakes", "spurious_wakes", "fast_forwards",
		"stall_lane_credit", "stall_bandwidth", "stall_head_of_line", "stall_shared_pool",
	} {
		set(m, "vcsim."+name, float64(total[name]))
	}
	if w := total["wakes"]; w > 0 {
		set(m, "vcsim.useful_wake_ratio", float64(w-total["spurious_wakes"])/float64(w))
	}
	set(m, "vcsim.arena_capacity", arena)
}

// setSelfTimes fills the <layer>.self_s_per_job metrics from the spans;
// every job has one root span.
func setSelfTimes(m map[string]metric, tr *tracer) {
	jobs := 0
	for _, s := range tr.spans {
		if s.Parent < 0 {
			jobs++
		}
	}
	if jobs == 0 {
		return
	}
	for layer, s := range tr.selfSecondsByLayer() {
		set(m, layer+".self_s_per_job", s/float64(jobs))
	}
	set(m, "trace.spans", float64(len(tr.spans)))
}
