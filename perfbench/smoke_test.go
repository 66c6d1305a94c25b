package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"plshuffle/internal/mpi"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run passes its output checks and reports exactly the
// metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads()))
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(options{workload: wl.Name, seed: 7, seconds: 0.01, trace: traced,
				workdir: t.TempDir(), tiny: true, out: io.Discard})
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s (traced=%v): %d of %d operations failed their checks", wl.Name, traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): reported %d metrics, BENCHMARK.json declares %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (traced=%v): metric %s = %+v, want unit %s", wl.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestHungRunFails checks that a world whose ranks never finish is torn
// down after runLimit and reported as failed, not waited on forever.
func TestHungRunFails(t *testing.T) {
	defer func(d time.Duration) { runLimit = d }(runLimit)
	runLimit = 200 * time.Millisecond
	w, err := openWorld(2, false)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	err = w.run(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 99) // rank 1 never sends
		}
		return nil
	})
	if err == nil || !w.hung {
		t.Fatalf("run of a hung world returned %v (hung=%v), want a hang error", err, w.hung)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("hung run returned after %v, want about %v", d, runLimit)
	}
	if err := w.close(); err != nil {
		t.Errorf("closing a hung world: %v", err)
	}
}
