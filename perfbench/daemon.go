package main

// The daemon workload: a wormholed subprocess with one worker, driven
// through wormclient by a closed loop of two clients. Each client POSTs
// a small sweep job, polls it until it ends and GETs its result CSV,
// then submits the next. The short checkpoint interval makes every sweep
// point checkpoint several times.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wormhole/internal/wormclient"
)

// One worker: with two, the two concurrent simulations and the client
// oversubscribe a 2-vCPU box, and wall-clock throughput swung about twice
// as far between back-to-back runs. Two clients still keep one job queued
// behind the running one, so queue wait is measured.
const (
	daemonWorkers   = 1
	daemonClients   = 2
	daemonCkptEvery = 256 // flit steps between checkpoints
	daemonStarts    = 10  // timed cold starts before the measured one
	daemonPoll      = 5 * time.Millisecond
	daemonMeasure   = 1024
	daemonEndpoints = 64
)

// daemonSpec is pool entry idx: a 64-input B=2 sweep at two rates.
func daemonSpec(idx int) map[string]any {
	return map[string]any{
		"type": "sweep",
		"sweep": map[string]any{
			"topology":         "butterfly",
			"size":             daemonEndpoints,
			"virtual_channels": 2,
			"message_length":   6,
			"arbitration":      "age",
			"process":          "poisson",
			"pattern":          "uniform",
			"rates":            []float64{0.15, 0.275},
			"warmup":           256,
			"measure":          daemonMeasure,
			"drain":            8192,
			"max_backlog":      1 << 16,
			"seed":             3000 + idx,
		},
	}
}

// daemon is one running wormholed.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	done    chan error    // receives the process's exit once
	startup time.Duration // exec to the first healthy /healthz
}

// startDaemon execs wormholed over a fresh state directory and returns
// once /healthz answers.
func startDaemon(o *opts, dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(o.daemonBin,
		"-http", "127.0.0.1:0", "-addr-file", addrFile,
		"-state", filepath.Join(dir, "state"),
		"-workers", strconv.Itoa(daemonWorkers),
		"-checkpoint-interval", strconv.Itoa(daemonCkptEvery))
	cmd.Stdout, cmd.Stderr = logf, logf
	// Take the daemon down with the benchmark should the benchmark be
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	hc := &http.Client{Timeout: time.Second}
	for {
		if d.base == "" {
			if blob, err := os.ReadFile(addrFile); err == nil && len(blob) > 0 {
				d.base = "http://" + string(blob)
			}
		}
		if d.base != "" {
			if resp, err := hc.Get(d.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.startup = time.Since(t0)
					return d, nil
				}
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("wormholed exited during start: %v (log %s)", err, logf.Name())
		case <-time.After(100 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("wormholed did not become healthy in 30s")
		}
	}
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck -- it may have exited already
	select {
	case err := <-d.done:
		d.done <- err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck -- the wait below reaps it either way
		d.done <- <-d.done
	}
}

// newClient makes one attempt per request: a retried 5xx would hide a
// reject.
func newClient(base string, seed int64) *wormclient.Client {
	return wormclient.New(base, wormclient.WithRetry(1, 0, 0), wormclient.WithJitterSeed(seed))
}

// daemonJob is one job's client-side record.
type daemonJob struct {
	wall, post, result float64 // seconds
	queueWait, run     float64 // seconds; -1 when no poll saw it running
	polls, msgs        int
	ok                 bool
}

// clientLoop submits jobs until the deadline, each waiting on the last;
// it always sends at least one.
func clientLoop(ctx context.Context, o *opts, tr *tracer, c *wormclient.Client, next *atomic.Int64, deadline time.Time, ord []int, out chan<- daemonJob, rejects *atomic.Int64) {
	for first := true; first || time.Now().Before(deadline); first = false {
		jid := int(next.Add(1) - 1)
		idx := ord[jid%poolSize]
		j, err := daemonRoundTrip(ctx, o, tr, c, jid, idx)
		if err != nil {
			rejects.Add(1)
			j.ok = false
		}
		out <- j
	}
}

func daemonRoundTrip(ctx context.Context, o *opts, tr *tracer, c *wormclient.Client, jid, idx int) (j daemonJob, err error) {
	j = daemonJob{queueWait: -1, run: -1}
	start := time.Now()
	root := tr.begin("bench.job", -1, jid)
	defer func() {
		tr.end(root)
		j.wall = time.Since(start).Seconds()
	}()
	s := tr.begin("wormholed.post", root, jid)
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	err = c.PostJSON(ctx, "/api/v1/jobs", daemonSpec(idx), &st)
	tr.end(s)
	j.post = time.Since(start).Seconds()
	if err != nil {
		return j, err
	}
	posted := time.Now()
	var running time.Time
	for st.State != "done" {
		if st.State == "failed" || st.State == "canceled" {
			return j, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(daemonPoll)
		s = tr.begin("wormholed.poll", root, jid)
		err = c.GetJSON(ctx, "/api/v1/jobs/"+st.ID, &st)
		tr.end(s)
		j.polls++
		if err != nil {
			return j, err
		}
		if st.State != "queued" && running.IsZero() {
			running = time.Now()
			j.queueWait = running.Sub(posted).Seconds()
		}
	}
	if !running.IsZero() {
		j.run = time.Since(running).Seconds()
	}
	t0 := time.Now()
	s = tr.begin("wormholed.result", root, jid)
	csv, err := c.Get(ctx, "/api/v1/jobs/"+st.ID+"/result")
	tr.end(s)
	j.result = time.Since(t0).Seconds()
	if err != nil {
		return j, err
	}
	sum := sha256.Sum256(csv)
	s = tr.begin("bench.check", root, jid)
	j.ok = check(o.check, o.check.g.Daemon, strconv.Itoa(idx), hex.EncodeToString(sum[:]))
	tr.end(s)
	j.msgs, err = csvDelivered(string(csv))
	return j, err
}

// csvDelivered recovers the messages delivered inside the measurement
// windows of a sweep CSV: accepted × endpoints × measured steps per row.
func csvDelivered(csv string) (int, error) {
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	total := 0
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) < 3 {
			return 0, fmt.Errorf("short CSV row %q", line)
		}
		acc, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return 0, err
		}
		total += int(acc*daemonEndpoints*daemonMeasure + 0.5)
	}
	return total, nil
}

// runDaemon is one pass of the daemon workload.
func runDaemon(o *opts, tr *tracer) (report, error) {
	rep := report{}
	dir := filepath.Join(o.work, "daemon")
	var setups []float64
	var d *daemon
	for i := 0; i <= daemonStarts; i++ {
		var err error
		if d, err = startDaemon(o, dir); err != nil {
			return rep, err
		}
		setups = append(setups, d.startup.Seconds())
		if i < daemonStarts {
			d.stop()
		}
	}
	defer d.stop()
	pid := d.cmd.Process.Pid
	w0, err1 := wcharBytes(pid)
	cpu0, err2 := cpuSeconds(pid)
	if err := errors.Join(err1, err2); err != nil {
		return rep, err
	}

	ord := order(o.seed)
	ctx := context.Background()
	var next, rejects atomic.Int64
	out := make(chan daemonJob)
	start := time.Now()
	deadline := start.Add(o.seconds)
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			clientLoop(ctx, o, tr, newClient(d.base, int64(o.seed)+int64(c)), &next, deadline, ord, out, &rejects)
		}(c)
	}
	go func() { wg.Wait(); close(out) }()
	var jobs []daemonJob
	for j := range out {
		jobs = append(jobs, j)
	}
	wall := time.Since(start).Seconds()

	w1, err1 := wcharBytes(pid)
	cpu1, err2 := cpuSeconds(pid)
	rss, err3 := peakRSSMB(pid)
	if err := errors.Join(err1, err2, err3); err != nil {
		return rep, err
	}

	var lat, post, run, result, wait, polls []float64
	msgs, done := 0, 0
	for _, j := range jobs {
		rep.attempted++
		if !j.ok {
			rep.failed++
			continue
		}
		done++
		msgs += j.msgs
		lat = append(lat, j.wall)
		post = append(post, j.post)
		result = append(result, j.result)
		polls = append(polls, float64(j.polls))
		if j.queueWait >= 0 {
			wait = append(wait, j.queueWait)
		}
		if j.run >= 0 {
			run = append(run, j.run)
		}
	}
	if done == 0 {
		return rep, fmt.Errorf("no daemon job succeeded (%d attempted; log in %s)", len(jobs), dir)
	}
	rep.e2e = map[string]metric{
		"setup_s": {median(setups), "s"},
		// Wall time, not the daemon's CPU time: with one busy worker the
		// Go collector's idle-priority mark workers burn the spare CPU,
		// which made a CPU-time rate swing 13% between runs against 4%
		// for the wall-clock one.
		"sim_msgs_per_s":   {float64(msgs) / wall, "msg/s"},
		"peak_rss_mb":      {rss, "MB"},
		"jobs_per_s":       {float64(done) / wall, "job/s"},
		"job_p50_s":        {median(lat), "s"},
		"job_p90_s":        {quantile(lat, 0.9), "s"},
		"write_mb_per_job": {(w1 - w0) / float64(done) / (1 << 20), "MB"},
	}
	if tr != nil {
		m := layerTemplate()
		set(m, "wormholed.post_s", median(post))
		set(m, "wormholed.run_s", median(run))
		set(m, "wormholed.result_s", median(result))
		set(m, "wormholed.queue_wait_s", median(wait))
		set(m, "wormholed.cpu_s_per_job", (cpu1-cpu0)/float64(done))
		set(m, "wormholed.polls_per_job", median(polls))
		set(m, "wormholed.rejects", float64(rejects.Load()))
		rep.layer = m
	}
	return rep, nil
}
