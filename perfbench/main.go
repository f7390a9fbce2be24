// Command perfbench is the repository benchmark: it times calls into each
// layer's public functions from outside, checks every simulated output
// against committed goldens, and prints one JSON result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload knee|deepknee|batch|daemon|all
//	                      [--seed N] [--seconds S] [--trace 0|1]
//	                      [--record FILE] [--write-golden FILE]
//
// See perfbench/README.md for the metrics, the workloads and why they
// were chosen.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wormhole/internal/traffic"
)

// workloads in the order --workload all runs them.
var workloads = []string{"knee", "deepknee", "batch", "daemon"}

// opts is one invocation's settings.
type opts struct {
	workload  string
	seed      uint64
	seconds   time.Duration // 0 runs one cycle of inputs per pass
	check     *checker      // goldens to compare against, or a recorder
	work      string        // scratch directory for checkpoints and daemon state
	daemonBin string
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "knee, deepknee, batch, daemon, or all")
	seed := fl.Uint64("seed", 1, "orders the input pool")
	seconds := fl.Float64("seconds", 25, "measured seconds per pass")
	trace := fl.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	record := fl.String("record", "", "with --workload all: append the results as one line to this file")
	writeGolden := fl.String("write-golden", "", "run every pooled input once and write the goldens to this file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o := &opts{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		work:      filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		daemonBin: filepath.Join(filepath.Dir(exe), "wormholed"),
	}
	if *writeGolden != "" {
		o.work = filepath.Join(".bench_build", "run", fmt.Sprintf("golden-%d", os.Getpid()))
		if err := writeGoldens(o, *writeGolden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if o.workload == "all" {
		return runAll(exe, args, *record, stdout)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	g, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.check = &checker{g: g}
	res, err := runOne(o, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env, _ := json.Marshal(environment())
	fmt.Fprintf(stdout, "env %s\n", env)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// pass runs one pass of o.workload.
func pass(o *opts, tr *tracer) (report, error) {
	switch o.workload {
	case "knee":
		return runOpen(o, tr, kneePoints, o.check.g.Knee)
	case "deepknee":
		return runOpen(o, tr, deepKneePoints, o.check.g.DeepKnee)
	case "batch":
		return runBatch(o, tr)
	case "daemon":
		return runDaemon(o, tr)
	}
	return report{}, fmt.Errorf("unknown workload %q (want %s or all)", o.workload, strings.Join(workloads, ", "))
}

// runOne measures one workload. A traced run makes an untraced pass and
// then a traced one, each half of o.seconds so that a run takes as long
// traced as untraced, and reports the per-layer metrics with the
// difference in median job time as tracing overhead.
func runOne(o *opts, traced bool, stdout io.Writer) (result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(o.work)
	if traced {
		o.seconds /= 2
	}
	rep, err := pass(o, nil)
	if err != nil {
		return result{}, err
	}
	metrics := rep.e2e
	if traced {
		tr := newTracer()
		trep, err := pass(o, tr)
		if err != nil {
			return result{}, err
		}
		rep.attempted += trep.attempted
		rep.failed += trep.failed
		metrics = trep.layer
		setSelfTimes(metrics, tr)
		base, with := rep.e2e["job_p50_s"].Value, trep.e2e["job_p50_s"].Value
		set(metrics, "trace.overhead_s_per_job", with-base)
		set(metrics, "trace.overhead_pct", 100*(with-base)/base)
		path, err := writeSpans(o, tr)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "spans %s\n", path)
	}
	return result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics}, nil
}

// writeSpans saves the traced pass's spans next to the scratch directory
// (which is removed when the run ends).
func writeSpans(o *opts, tr *tracer) (string, error) {
	path := filepath.Join(filepath.Dir(o.work), fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	blob, err := json.Marshal(tr.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}

// runAll runs every workload in a fresh process of its own, so memory
// high-water marks and collector state stay per workload, and prints
// each result line. It fails when any workload fails or checks wrong.
func runAll(exe string, args []string, record string, stdout io.Writer) int {
	var rest []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		name := strings.TrimLeft(a, "-")
		name, _, inline := strings.Cut(name, "=")
		if name == "workload" || name == "record" {
			if !inline {
				i++ // skip the separate value
			}
			continue
		}
		rest = append(rest, a)
	}
	status := 0
	results := map[string]json.RawMessage{}
	for _, w := range workloads {
		cmd := exec.Command(exe, append([]string{"--workload", w}, rest...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		last := lastLine(out)
		var res result
		if err != nil || json.Unmarshal(last, &res) != nil || !res.Correct {
			fmt.Fprintf(stdout, "%s FAILED: %v\n%s", w, err, out)
			status = 1
			continue
		}
		fmt.Fprintf(stdout, "%s %s\n", w, last)
		results[w] = last
	}
	if record != "" && status == 0 {
		line, err := json.Marshal(map[string]any{
			"date":    time.Now().UTC().Format(time.RFC3339),
			"env":     environment(),
			"args":    rest,
			"results": results,
		})
		if err == nil {
			err = appendLine(record, line)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return status
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// environment is recorded with every result: what the figures were
// measured on and of which source.
func environment() map[string]any {
	// Only a repository rooted here names the measured commit; a checkout
	// without git metadata is identified by source_sha256 alone.
	commit := "unknown"
	wd, _ := os.Getwd()
	if out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output(); err == nil {
		if f := strings.Fields(string(out)); len(f) == 2 && f[0] == wd {
			commit = f[1]
		}
	}
	return map[string]any{
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
	}
}

// sourceDigest hashes every Go source and module file under root, which
// identifies the measured code where no git metadata is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(blob))
		h.Write(blob)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeGoldens runs every pooled input of every workload once and writes
// what they produced. Open-loop points run uninterrupted, so every
// benchmark run checks its paused, checkpointed and resumed points
// against runs that never paused.
func writeGoldens(o *opts, path string) error {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.work)
	o.check = newRecorder()
	for idx := 0; idx < poolSize; idx++ {
		for _, p := range kneePoints {
			if err := recordOpenPoint(o.check, idx, p, o.check.g.Knee); err != nil {
				return err
			}
		}
		for _, p := range deepKneePoints {
			if err := recordOpenPoint(o.check, idx, p, o.check.g.DeepKnee); err != nil {
				return err
			}
		}
		j, err := runBatchJob(o, nil, 0, idx)
		if err != nil {
			return err
		}
		if !j.ckptOK {
			return errors.New("batch checkpoint round trip diverged while recording goldens")
		}
	}
	d, err := startDaemon(o, filepath.Join(o.work, "daemon"))
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.base, 0)
	for idx := 0; idx < poolSize; idx++ {
		if _, err := daemonRoundTrip(context.Background(), o, nil, c, idx, idx); err != nil {
			return err
		}
	}
	return o.check.save(path)
}

// recordOpenPoint runs one open-loop point start to end, without a pause,
// and records its result.
func recordOpenPoint(c *checker, idx int, p openPoint, golden map[string]traffic.Result) error {
	r, err := traffic.NewRunner(openConfig(traffic.NewButterflyNet(64), p, idx))
	if err != nil {
		return err
	}
	res, err := r.Run()
	if err != nil {
		return fmt.Errorf("%d/%s: %w", idx, p.name, err)
	}
	check(c, golden, goldenKey(idx, p.name), res)
	return nil
}
