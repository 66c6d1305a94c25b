package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"plshuffle/internal/trace"
)

// End-to-end metrics: what a user of the trainer sees.
var endToEndUnits = map[string]string{
	"samples_per_s":          "1/s",
	"val_acc":                "frac",
	"final_train_loss":       "nats",
	"net_bytes_per_sample":   "bytes",
	"alloc_bytes_per_sample": "bytes",
	"peak_rss_bytes":         "bytes",
	"setup_s":                "s",
}

// runEndToEnd repeats set-up-then-train iterations with tracing off for
// the run's budget. Each job trains on its own fresh set-up, so set-ups
// are sampled across the whole run, as the jobs are, rather than in one
// burst at its start. Set-up time and training time are measured apart,
// and both are scaled to the reference host (see calibrate).
func runEndToEnd(o options, w workload, dir string) (*result, error) {
	res := &result{}
	var setups, rates, cals []float64
	// Only the last job is kept, so the number of jobs a run fits in,
	// which depends on speed, does not raise its peak RSS.
	var last *jobResult
	var alloc uint64
	var moved int64
	var want uint32
	var e *env
	defer func() { teardown(e) }()
	dl := newDeadline(o.seconds)
	for i := 0; dl.more(); i++ {
		if err := teardown(e); err != nil {
			return nil, err
		}
		e = nil
		// Time the reference computation while nothing else runs, and
		// start each set-up from a collected heap with freed memory
		// returned, so earlier set-ups, jobs and calibrations neither slow
		// it nor raise peak RSS.
		debug.FreeOSMemory()
		cals = append(cals, calibrate())
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if e, err = setup(w, o.seed, filepath.Join(dir, fmt.Sprintf("setup%d", i)), nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		jr, a, ok := runJob(o, e, res, i, want, "job", nil, nil)
		alloc += a
		if !ok {
			break // the world may be torn; stop rather than report on it
		}
		if want == 0 {
			want = jr.crc
		}
		rates = append(rates, float64(e.perJob)/jr.wall.Seconds())
		moved += jr.socket.BytesSent + jr.socket.BytesRecv + jr.storeBytes()
		last = jr
	}
	printSeconds(o, "setup", setups)
	printSeconds(o, "calibration", cals)
	// slow is how much slower than the reference host this host ran
	// during the run; the time metrics are scaled by it.
	slow := median(cals) / calNominal
	fmt.Fprintf(o.out, "speed: %.3fx the reference host's time; raw setup_s=%.4f samples_per_s=%.1f\n",
		slow, median(setups), median(rates))
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"setup_s":        median(setups) / slow,
		"peak_rss_bytes": float64(rss),
	}
	if last != nil {
		samples := float64(e.perJob) * float64(len(rates))
		final := last.ranks[0].Epochs[len(last.ranks[0].Epochs)-1]
		m["samples_per_s"] = median(rates) * slow
		m["val_acc"] = final.ValAcc
		m["final_train_loss"] = final.TrainLoss
		m["net_bytes_per_sample"] = float64(moved) / samples
		m["alloc_bytes_per_sample"] = float64(alloc) / samples
	}
	res.Metrics = withUnits(m, endToEndUnits)
	return res, nil
}

func printSeconds(o options, what string, xs []float64) {
	fmt.Fprintf(o.out, "%s: %d runs, seconds:", what, len(xs))
	for _, x := range xs {
		fmt.Fprintf(o.out, " %.4f", x)
	}
	fmt.Fprintln(o.out)
}

// teardown closes a set-up's world and removes its files.
func teardown(e *env) error {
	if e == nil {
		return nil
	}
	if err := e.close(); err != nil {
		return err
	}
	return os.RemoveAll(e.dir)
}

// runJobs trains jobs on one set-up while another fits in budget (at
// least one job) and returns the jobs that trained. rec and sp, when non-nil,
// trace the jobs. Checkpoint directories of all but the last job are
// removed.
func runJobs(o options, e *env, res *result, budget time.Duration, rec *trace.Recorder, sp *spans) []*jobResult {
	label := "job"
	if rec != nil {
		label = "traced job"
	}
	var jobs []*jobResult
	var want uint32
	dl := newDeadline(budget.Seconds())
	for i := 0; dl.more(); i++ {
		jr, _, ok := runJob(o, e, res, i, want, label, rec, sp)
		if !ok {
			break // the world may be torn; stop rather than report on it
		}
		if want == 0 {
			want = jr.crc
		}
		if n := len(jobs); n > 0 && jobs[n-1].ckpt != "" {
			os.RemoveAll(jobs[n-1].ckpt)
		}
		jobs = append(jobs, jr)
	}
	return jobs
}

// runJob trains one job, counts it as an attempted operation and
// checks it against want, the crc earlier jobs of the same inputs gave (0
// for none). It returns the job, the heap bytes it allocated, and false
// if training itself failed, which leaves the world unusable. rec and sp,
// when non-nil, trace the job.
func runJob(o options, e *env, res *result, idx int, want uint32, label string, rec *trace.Recorder, sp *spans) (*jobResult, uint64, bool) {
	res.Attempted++
	a0 := totalAlloc()
	jr, err := e.runJob(idx, rec, sp)
	alloc := totalAlloc() - a0
	if err != nil {
		res.Failed++
		fmt.Fprintf(o.out, "%s %d: FAILED: %v\n", label, idx, err)
		return nil, alloc, false
	}
	fails := e.check(jr, want)
	if len(fails) > 0 {
		res.Failed++
	}
	last := jr.ranks[0].Epochs[len(jr.ranks[0].Epochs)-1]
	fmt.Fprintf(o.out, "%s %d: %.3fs weights crc32c=%08x val_acc=%.4f loss=%.4f %s\n",
		label, idx, jr.wall.Seconds(), jr.crc, last.ValAcc, last.TrainLoss, verdict(fails))
	return jr, alloc, true
}

// deadline paces a loop of similar iterations so that it ends within its
// budget: an iteration is started only if one as long as the longest so
// far still fits. The first iteration always runs.
type deadline struct {
	end, prev time.Time
	longest   time.Duration
	started   bool
}

func newDeadline(seconds float64) *deadline {
	return &deadline{end: time.Now().Add(time.Duration(seconds * float64(time.Second)))}
}

// more reports whether another iteration fits; each call after the first
// ends the previous iteration.
func (d *deadline) more() bool {
	now := time.Now()
	if !d.started {
		d.started, d.prev = true, now
		return true
	}
	d.longest = max(d.longest, now.Sub(d.prev))
	d.prev = now
	return !now.Add(d.longest).After(d.end)
}

func verdict(fails []string) string {
	if len(fails) == 0 {
		return "ok"
	}
	return "FAILED: " + strings.Join(fails, "; ")
}

// withUnits attaches units to values; every name in units is reported,
// as 0 when the run produced no value for it.
func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{Value: values[name], Unit: unit}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
