// Command perfbench is the repository's benchmark. One run sets up one
// named workload, trains it for a fixed number of epochs per job, repeats
// jobs for --seconds, checks the outputs, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 a separate run records spans around the
// calls into each layer and reports the per-layer metrics. Run it from the
// repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload pls-tcp --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line. A training job or layer probe
// is one attempted operation; a failed output check fails it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	// tiny shrinks the workload for the smoke test.
	tiny bool
	out  io.Writer
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: pls-tcp, pls-lean-tcp, gs-1rank or corgi2-ckpt")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long to repeat training jobs")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "run"), "directory for generated inputs, checkpoints and spans")
	flag.Parse()
	o.trace = trace == 1
	o.out = os.Stdout
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if o.seed == 0 {
		fail(fmt.Errorf("--seed must be positive"))
	}
	// The cache tier stages shard copies under the temporary directory;
	// keep every file the benchmark writes inside its work directory.
	tmp := filepath.Join(o.workdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fail(err)
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		fail(err)
	}
	res, err := run(o)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one benchmark run and returns its verdict.
func run(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.tiny {
		w = w.shrink()
	}
	host := fingerprint()
	fmt.Fprintf(o.out, "host: %s\n", host)
	fmt.Fprintf(o.out, "workload: %s seed=%d seconds=%g trace=%v\n", w.name, o.seed, o.seconds, o.trace)
	dir := filepath.Join(o.workdir, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	var res *result
	if o.trace {
		res, err = runTraced(o, w, dir, host)
	} else {
		res, err = runEndToEnd(o, w, dir)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(o.out, "  %-36s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(o.out, "checks: attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	return res, os.RemoveAll(dir)
}
