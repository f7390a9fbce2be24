package main

// Measurement plumbing shared by every workload: the result line, order
// statistics, /proc readers, and the in-memory span recorder behind the
// traced mode.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload measured in one pass.
type report struct {
	attempted, failed int
	e2e               map[string]metric
	layer             map[string]metric // filled only by a traced pass
}

// jobFigures is what every in-process job reports for the end-to-end
// metrics; times are wall-clock.
type jobFigures struct {
	setup, took, sim float64 // seconds: set-up, the whole job, simulating
	rss              float64 // MB, the process's peak during the job
	msgs             int     // simulated messages delivered
}

// inProcessMetrics derives the end-to-end metrics of an in-process pass
// from its jobs and the bytes the process wrote meanwhile.
func inProcessMetrics(jobs []jobFigures, written float64) map[string]metric {
	var setup, took, sim, rss []float64
	msgs := 0
	for _, j := range jobs {
		setup = append(setup, j.setup)
		took = append(took, j.took)
		sim = append(sim, j.sim)
		rss = append(rss, j.rss)
		msgs += j.msgs
	}
	return map[string]metric{
		"setup_s":          {median(setup), "s"},
		"sim_msgs_per_s":   {float64(msgs) / sum(sim), "msg/s"},
		"peak_rss_mb":      {median(rss), "MB"},
		"jobs_per_s":       {float64(len(jobs)) / sum(took), "job/s"},
		"job_p50_s":        {median(took), "s"},
		"job_p90_s":        {quantile(took, 0.9), "s"},
		"write_mb_per_job": {written / float64(len(jobs)) / (1 << 20), "MB"},
	}
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// procStatusKB reads one "Name: value kB" field of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// resident-set high-water mark (VmHWM) from the current RSS, so the mark
// read after a job is that job's own peak and every job starts from a
// collected heap, whatever garbage the previous input left.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// wcharBytes is the byte count the process has passed to write calls
// (files, pipes and sockets alike), from /proc/<pid>/io.
func wcharBytes(pid int) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/io: no wchar", pid)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux ABI this benchmark targets.
const clockTicks = 100

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds(pid int) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(blob, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(blob[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// span is one timed call into a layer. Spans of one job share Job; the
// root span of a job has Parent -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code. Spans are
// stamped with the wall time since the tracer was made.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Job: job})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
}

// perJob returns, for every job with at least one span named in names,
// the summed duration in seconds of those spans.
func (t *tracer) perJob(names ...string) []float64 {
	byJob := map[int]float64{}
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				byJob[s.Job] += float64(s.End-s.Start) / 1e9
			}
		}
	}
	out := make([]float64, 0, len(byJob))
	for _, v := range byJob {
		out = append(out, v)
	}
	return out
}

// selfSecondsByLayer sums every span's self time — its duration minus
// the time its child spans cover — by layer, the span-name prefix before
// the first dot. Children of one span never overlap: each job's spans
// are opened and closed by one goroutine.
func (t *tracer) selfSecondsByLayer() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self[i]) / 1e9
	}
	return out
}
