package core

import (
	"errors"
	"testing"
)

// TestT15QuickShapes sanity-checks the wide scale study at CI scale:
// the quick sweep keeps the full 1024-input butterfly, every curve point
// injects traffic, and the overloaded points carry the standing backlog
// the experiment exists to exercise.
func TestT15QuickShapes(t *testing.T) {
	rows := T15OpenLoop(quickCfg)
	p := t15Scale(quickCfg)
	if want := len(p.bs) * len(p.rates); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.N != 1024 {
			t.Errorf("quick row ran n=%d; T15 must keep the full network", r.N)
		}
		if r.Messages == 0 {
			t.Errorf("B=%d rate=%g: no messages injected", r.B, r.Offered)
		}
		if r.Backlog < 0 {
			t.Errorf("B=%d rate=%g: negative backlog %d", r.B, r.Offered, r.Backlog)
		}
	}
}

// TestT15ScaleValidation pins the Scale guard of the scale studies as a
// typed error from Run and Check, never a panic: only power-of-two butterflies at least the
// experiment's MinScale wide are meaningful overrides (T14 ≥ 8, T15 ≥
// 256), whatever Quick says, and experiments without a scale knob
// ignore it.
func TestT15ScaleValidation(t *testing.T) {
	for _, tc := range []struct {
		id    string
		scale int
		quick bool
	}{
		{"T15", 3, false},
		{"T15", 100, false},
		{"T15", 128, false},
		{"T15", 300, true},
		{"T14", 12, false},
		{"T14", 4, true},
	} {
		cfg := Config{Scale: tc.scale, Quick: tc.quick}
		if _, err := Run(tc.id, cfg); !errors.Is(err, ErrBadScale) {
			t.Errorf("%s scale %d: Run err = %v, want ErrBadScale", tc.id, tc.scale, err)
		}
	}
	for _, ok := range []struct {
		id    string
		scale int
	}{{"T15", 2048}, {"T14", 8}, {"T12", 300}} {
		if err := Check(ok.id, Config{Scale: ok.scale}); err != nil {
			t.Errorf("%s scale %d: %v", ok.id, ok.scale, err)
		}
	}
	if p := t15Scale(Config{Scale: 2048}); p.n != 2048 {
		t.Errorf("scale 2048 gave n=%d", p.n)
	}
}
