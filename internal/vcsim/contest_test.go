package vcsim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"wormhole/internal/fault"
	"wormhole/internal/graph"
	"wormhole/internal/message"
	"wormhole/internal/rng"
	"wormhole/internal/topology"
)

// contestFast reports whether tryAdvance takes its contest-edge fast
// path on si (the guard it evaluates each call).
func contestFast(si *Sim) bool { return si.faults == nil && si.contestLemma() }

// contestCase is one regime of TestContestLemmaRegimes: a workload, the
// configuration, and which side of the fast-path guard the wakeup
// engine sits on before and after the late messages are injected at
// step cut.
type contestCase struct {
	name      string
	g         *graph.Graph
	msgs      []message.Message
	releases  []int
	late      []message.Message
	cfg       Config
	wantFast  bool
	wantAfter bool
}

// butterflyStream is a heavily contended 16-input butterfly stream:
// random pairs, 1..8-flit worms, releases spread over 120 steps, so
// output edges see more final contenders than lanes.
func butterflyStream(seed uint64) (*topology.Butterfly, []message.Message, []int) {
	r := rng.New(seed)
	bf := topology.NewButterfly(16)
	var msgs []message.Message
	var releases []int
	for i := 0; i < 240; i++ {
		src, dst := r.Intn(16), r.Intn(16)
		msgs = append(msgs, message.Message{
			Src: bf.Input(src), Dst: bf.Output(dst), Length: 1 + r.Intn(8), Path: bf.Route(src, dst),
		})
		releases = append(releases, r.Intn(120))
	}
	return bf, msgs, releases
}

// TestContestLemmaRegimes pins tryAdvance's contest-edge fast path to
// the naive stepper, which never takes it: in every regime the wakeup
// engine's Result must deep-equal the oracle's. Each case also asserts
// which side of the guard it runs on, so both sides stay covered, and
// every run crosses a mid-run Snapshot/RestoreSim. The flip case starts
// on the fast path and leaves it when a mixed-role message (a butterfly
// route cut short, so its final edge is every full route's body edge)
// is injected mid-run; the second restore must keep it off.
func TestContestLemmaRegimes(t *testing.T) {
	const cut = 40
	bf, stream, releases := butterflyStream(3)
	g := bf.G

	sched := fault.Generate(fault.GenConfig{
		Seed: 5, NumEdges: g.NumEdges(), Horizon: 120, Rate: 0.3, MeanOutage: 20,
	})
	if len(sched) == 0 {
		t.Fatal("fault case generated an empty schedule")
	}

	var cases []contestCase
	for _, b := range []int{1, 2, 4} {
		for _, pol := range []Policy{ArbByID, ArbAge, ArbRandom} {
			cases = append(cases, contestCase{
				name: fmt.Sprintf("butterfly/B=%d/%s", b, pol),
				g:    g, msgs: stream, releases: releases,
				cfg:      Config{VirtualChannels: b, Arbitration: pol, Seed: 9},
				wantFast: true, wantAfter: true,
			})
		}
	}
	cases = append(cases,
		contestCase{
			name: "restricted/B=1", g: g, msgs: stream, releases: releases,
			cfg:      Config{VirtualChannels: 1, RestrictedBandwidth: true, Arbitration: ArbAge},
			wantFast: true, wantAfter: true,
		},
		contestCase{
			name: "restricted/B=2", g: g, msgs: stream, releases: releases,
			cfg:      Config{VirtualChannels: 2, RestrictedBandwidth: true, Arbitration: ArbAge},
			wantFast: false, wantAfter: false,
		},
		contestCase{
			name: "drop-on-delay", g: g, msgs: stream, releases: releases,
			cfg:      Config{VirtualChannels: 2, DropOnDelay: true, Arbitration: ArbByID},
			wantFast: true, wantAfter: true,
		},
		contestCase{
			name: "faults", g: g, msgs: stream, releases: releases,
			cfg:      Config{VirtualChannels: 2, Arbitration: ArbAge, Faults: sched, Retry: faultRetryDefaults},
			wantFast: false, wantAfter: false,
		},
	)

	// Flip: full routes stay unmixed until a truncated route arrives.
	var late []message.Message
	for src := 0; src < 16; src += 5 {
		p := bf.Route(src, 15-src)[:2]
		late = append(late, message.Message{
			Src: bf.Input(src), Dst: g.Edge(p[1]).Head, Length: 3, Path: p,
		})
	}
	for _, pol := range []Policy{ArbByID, ArbAge} {
		cases = append(cases, contestCase{
			name: "flip/" + pol.String(), g: g, msgs: stream, releases: releases, late: late,
			cfg:      Config{VirtualChannels: 2, Arbitration: pol},
			wantFast: true, wantAfter: false,
		})
	}

	// Mixed roles from the start: random pairs on a linear array, where
	// one message's final edge is another's body edge.
	line := topology.NewLinearArray(8)
	route := message.ShortestPathRouter(line)
	r := rng.New(17)
	var lineMsgs []message.Message
	var lineRel []int
	for i := 0; i < 80; i++ {
		src, dst := r.Intn(8), r.Intn(8)
		lineMsgs = append(lineMsgs, message.Message{
			Src: graph.NodeID(src), Dst: graph.NodeID(dst), Length: 1 + r.Intn(5),
			Path: route(graph.NodeID(src), graph.NodeID(dst)),
		})
		lineRel = append(lineRel, r.Intn(60))
	}
	cases = append(cases, contestCase{
		name: "line/mixed", g: line, msgs: lineMsgs, releases: lineRel,
		cfg:      Config{VirtualChannels: 2, Arbitration: ArbByID},
		wantFast: false, wantAfter: false,
	})

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			c.cfg.MaxSteps = 1 << 14
			c.cfg.CheckInvariants = true
			runContestCase(t, c, cut)
		})
	}
}

// runContestCase steps the wakeup engine and the naive oracle through
// one contestCase side by side and compares their final Results.
func runContestCase(t *testing.T, c contestCase, cut int) {
	t.Helper()
	naiveCfg := c.cfg
	naiveCfg.NaiveScan = true
	wake, err := NewSim(c.g, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewSim(c.g, naiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range c.msgs {
		for _, si := range []*Sim{wake, naive} {
			if _, err := si.Inject(m, c.releases[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string, want bool) {
		t.Helper()
		if got := contestFast(wake); got != want {
			t.Fatalf("%s: wakeup fast path = %v, want %v", when, got, want)
		}
		if contestFast(naive) {
			t.Fatalf("%s: naive stepper took the fast path", when)
		}
	}
	restore := func() {
		t.Helper()
		var blob bytes.Buffer
		if err := wake.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		if wake, err = RestoreSim(c.g, c.cfg, &blob); err != nil {
			t.Fatal(err)
		}
	}
	check("start", c.wantFast)
	errW, errN := wake.StepTo(cut), naive.StepTo(cut)
	if (errW == nil) != (errN == nil) {
		t.Fatalf("StepTo(%d): wakeup %v, naive %v", cut, errW, errN)
	}
	restore()
	check("restored", c.wantFast)
	for _, m := range c.late {
		for _, si := range []*Sim{wake, naive} {
			if _, err := si.Inject(m, si.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after late injects", c.wantAfter)
	restore()
	check("restored after late injects", c.wantAfter)
	snapDrain(wake)
	snapDrain(naive)
	rw, rn := wake.Result(), naive.Result()
	if !reflect.DeepEqual(rw, rn) {
		t.Fatalf("wakeup and naive results differ\nwakeup: %+v\n naive: %+v", rw, rn)
	}
	if rw.Delivered+rw.Dropped == 0 {
		t.Fatal("workload delivered nothing")
	}
}
