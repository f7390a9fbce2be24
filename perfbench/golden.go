package main

// Committed golden outputs. Every workload draws its inputs from a fixed
// pool of poolSize entries, ordered by --seed, so any seed exercises only
// inputs whose simulated outputs are recorded in golden.json; a mismatch
// marks that operation failed. Regenerate with --write-golden after a
// change that is meant to alter simulated results.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"

	"wormhole/internal/traffic"
)

// poolSize is the number of distinct inputs per workload.
const poolSize = 16

// order is the seed's permutation of the input pool; a run cycles
// through it.
func order(seed uint64) []int {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)).Perm(poolSize)
}

// batchGolden is one q-relation at one B: the Theorem 2.1.6 schedule's
// class count and makespan bound, and the greedy run's makespan.
type batchGolden struct {
	NumClasses  int `json:"num_classes"`
	LengthUB    int `json:"length_ub"`
	GreedySteps int `json:"greedy_steps"`
}

// goldens maps "<pool index>/<point>" keys to expected outputs; daemon
// entries are the sha256 of the job's result CSV.
type goldens struct {
	Knee     map[string]traffic.Result `json:"knee"`
	DeepKnee map[string]traffic.Result `json:"deepknee"`
	Batch    map[string]batchGolden    `json:"batch"`
	Daemon   map[string]string         `json:"daemon"`
}

// goldenKey names the output of one point of pool entry idx.
func goldenKey(idx int, point string) string { return fmt.Sprintf("%d/%s", idx, point) }

//go:embed golden.json
var goldenJSON []byte

func loadGoldens() (*goldens, error) {
	g := &goldens{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checker compares outputs with the goldens, or records them when
// regenerating. Daemon clients call it from two goroutines.
type checker struct {
	mu     sync.Mutex
	g      *goldens
	record bool
}

func newRecorder() *checker {
	return &checker{record: true, g: &goldens{
		Knee:     map[string]traffic.Result{},
		DeepKnee: map[string]traffic.Result{},
		Batch:    map[string]batchGolden{},
		Daemon:   map[string]string{},
	}}
}

// check reports whether got matches the golden entry m[key]; when
// recording it stores got and reports true.
func check[T comparable](c *checker, m map[string]T, key string, got T) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.record {
		m[key] = got
		return true
	}
	want, ok := m[key]
	return ok && want == got
}

func (c *checker) save(path string) error {
	blob, err := json.MarshalIndent(c.g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
