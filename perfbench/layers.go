package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"plshuffle/internal/checkpoint"
	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store"
	"plshuffle/internal/store/shard"
	"plshuffle/internal/tensor"
	"plshuffle/internal/tensor/arena"
	"plshuffle/internal/trace"
	"plshuffle/internal/train"
	"plshuffle/internal/transport/wirecomp"
)

// Per-layer metrics. "Per epoch" values are per rank, averaged over ranks
// and epochs. A layer the workload does not use reports 0.
var perLayerUnits = map[string]string{
	"train.io_s_per_epoch":         "s",
	"train.exchange_s_per_epoch":   "s",
	"train.fwbw_s_per_epoch":       "s",
	"train.gewu_wait_s_per_epoch":  "s",
	"train.gewu_hidden_share":      "frac",
	"train.validate_s_per_epoch":   "s",
	"train.unattributed_share":     "frac",
	"trace.untraced_samples_per_s": "1/s",
	"trace.traced_samples_per_s":   "1/s",
	"trace.overhead_share":         "frac",

	"tensor.matmul_us_per_batch": "us",
	"tensor.matmul_gflops":       "GFLOP/s",

	"nn.forward_us_per_batch":  "us",
	"nn.backward_us_per_batch": "us",
	"nn.step_us_per_batch":     "us",
	"nn.alloc_bytes_per_batch": "bytes",

	"mpi.allreduce_us":         "us",
	"mpi.allreduce_wire_bytes": "bytes",

	"shuffle.scheduling_us":               "us",
	"shuffle.communicate_us":              "us",
	"shuffle.synchronize_us":              "us",
	"shuffle.clean_us":                    "us",
	"shuffle.wire_bytes_per_moved_sample": "bytes",
	"shuffle.dedup_hit_ratio":             "frac",

	"data.encode_ns_per_sample": "ns",
	"data.decode_ns_per_sample": "ns",
	"data.fp16_compact_ratio":   "frac",

	"transport.frames_per_epoch":        "count",
	"transport.bytes_per_epoch":         "bytes",
	"transport.control_bytes_per_epoch": "bytes",
	"transport.compress_ratio":          "ratio",
	"wirecomp.encode_ns_per_kib":        "ns",

	"shard.read_ns_per_sample":   "ns",
	"cache.hit_ratio":            "frac",
	"cache.evictions_per_epoch":  "count",
	"cache.pfs_bytes_per_epoch":  "bytes",
	"cache.pfs_wait_s_per_epoch": "s",
	"checkpoint.bytes":           "bytes",
	"checkpoint.encode_us":       "us",
	"checkpoint.write_commit_ms": "ms",
}

// runTraced sets up once, trains untraced and then traced jobs (their
// throughput difference is the tracing overhead), reads the per-epoch
// results and transport counters of the traced jobs, and finally times
// calls into each layer at the workload's shapes on the same world.
func runTraced(o options, w workload, dir string, host hostInfo) (*result, error) {
	sp := newSpans()
	e, err := setup(w, o.seed, filepath.Join(dir, "setup"), sp)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res := &result{}
	third := time.Duration(o.seconds / 3 * float64(time.Second))
	m := map[string]float64{}

	untraced := runJobs(o, e, res, third, nil, nil)
	rec := trace.NewRecorder()
	raw0, wire0 := e.world.compression()
	traced := runJobs(o, e, res, third, rec, sp)
	raw1, wire1 := e.world.compression()
	if len(untraced) == 0 || len(traced) == 0 || res.Failed > 0 {
		res.Metrics = withUnits(m, perLayerUnits)
		return res, nil
	}
	m["trace.untraced_samples_per_s"] = jobRate(e, untraced)
	m["trace.traced_samples_per_s"] = jobRate(e, traced)
	m["trace.overhead_share"] = 1 - m["trace.traced_samples_per_s"]/m["trace.untraced_samples_per_s"]
	epochWall, gewu := trainMetrics(e, traced, rec, m)
	if raw1 > raw0 && wire1 > wire0 {
		m["transport.compress_ratio"] = float64(raw1-raw0) / float64(wire1-wire0)
	} else if e.world.tcp {
		m["transport.compress_ratio"] = 1
	}

	probes := []struct {
		name string
		run  func(e *env, budget time.Duration, m map[string]float64) error
		use  bool
	}{
		{"tensor", probeTensor, true},
		{"nn", probeNN, true},
		{"mpi", probeMPI, true},
		{"shuffle", probeShuffle, w.strategy.Kind == shuffle.PartialLocal},
		{"data", probeData, w.strategy.Kind == shuffle.PartialLocal},
		{"store", probeStore, w.corgi != nil},
		{"checkpoint", func(e *env, b time.Duration, m map[string]float64) error {
			return probeCheckpoint(e, traced[len(traced)-1].ckpt, b, m)
		}, w.corgi != nil && w.corgi.checkpoint},
	}
	budget := third / time.Duration(len(probes))
	for _, p := range probes {
		if !p.use {
			continue
		}
		_, end := sp.begin("probe."+p.name, 0, -1)
		res.Attempted++
		err := p.run(e, budget, m)
		end(1)
		if err != nil {
			res.Failed++
			fmt.Fprintf(o.out, "probe %s: FAILED: %v\n", p.name, err)
		}
	}
	res.Metrics = withUnits(m, perLayerUnits)
	printShares(o, m, epochWall, gewu)

	path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	header := map[string]any{"workload": w.name, "seed": o.seed, "host": host}
	if err := sp.write(path, header); err != nil {
		return nil, err
	}
	events, err := os.Create(filepath.Join(o.workdir, fmt.Sprintf("phases-%s-seed%d.jsonl", w.name, o.seed)))
	if err != nil {
		return nil, err
	}
	if err := rec.WriteJSONL(events); err != nil {
		events.Close()
		return nil, err
	}
	if err := events.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "spans: %s\n", path)
	return res, nil
}

// jobRate is the median over jobs of samples trained per second.
func jobRate(e *env, jobs []*jobResult) float64 {
	var rates []float64
	for _, jr := range jobs {
		rates = append(rates, float64(e.perJob)/jr.wall.Seconds())
	}
	return median(rates)
}

// trainMetrics reduces the traced jobs' per-epoch results, phase events,
// cache counters and transport counters. It returns one rank's mean epoch
// wall time and gradient exchange + weight update time, in seconds.
func trainMetrics(e *env, jobs []*jobResult, rec *trace.Recorder, m map[string]float64) (epochWall, gewuS float64) {
	var io, exch, fwbw, gewu, wait, comm, wall time.Duration
	var metered, evictions, pfsBytes, pfsNs, hits, misses int64
	var frames, bytes int64
	n := 0
	for _, jr := range jobs {
		for r, rr := range jr.ranks {
			wall += jr.rankWall[r]
			for _, es := range rr.Epochs {
				n++
				io += es.IOTime
				exch += es.ExchangeTime
				fwbw += es.FWBWTime
				gewu += es.GEWUTime
				wait += es.GEWUWaitTime
				comm += es.GEWUCommTime
				metered += es.ExchangeWireBytes + es.GradWireBytes
			}
			if cs := rr.Cache; cs != nil {
				hits += cs.Hits
				misses += cs.Misses
				evictions += cs.Evictions
				pfsBytes += cs.PFSReadBytes
				pfsNs += cs.PFSReadNs
			}
		}
		frames += jr.socket.FramesSent + jr.socket.FramesRecv
		bytes += jr.socket.BytesSent + jr.socket.BytesRecv
	}
	val := rec.PhaseTotals()[trace.PhaseValidate]
	per := func(d time.Duration) float64 { return d.Seconds() / float64(n) }
	m["train.io_s_per_epoch"] = per(io)
	m["train.exchange_s_per_epoch"] = per(exch)
	m["train.fwbw_s_per_epoch"] = per(fwbw)
	m["train.gewu_wait_s_per_epoch"] = per(wait)
	m["train.validate_s_per_epoch"] = per(val)
	if comm > 0 {
		m["train.gewu_hidden_share"] = 1 - wait.Seconds()/comm.Seconds()
	}
	m["train.unattributed_share"] = 1 - (io+exch+fwbw+gewu+val).Seconds()/wall.Seconds()
	m["transport.frames_per_epoch"] = float64(frames) / float64(n)
	m["transport.bytes_per_epoch"] = float64(bytes) / float64(n)
	if e.world.tcp {
		m["transport.control_bytes_per_epoch"] = float64(bytes-metered) / float64(n)
	}
	if hits+misses > 0 {
		m["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
		m["cache.evictions_per_epoch"] = float64(evictions) / float64(n)
		m["cache.pfs_bytes_per_epoch"] = float64(pfsBytes) / float64(n)
		m["cache.pfs_wait_s_per_epoch"] = float64(pfsNs) / 1e9 / float64(n)
	}
	return per(wall), per(gewu)
}

// printShares prints where one rank's epoch goes: each trainer phase's
// share of the epoch wall time (gewu is gradient exchange plus weight
// update, of which gewu_wait is the exposed wait), and the share one
// checkpoint (snapshot encode plus write and commit, as probed) would take
// of it.
func printShares(o options, m map[string]float64, epochWall, gewu float64) {
	if epochWall <= 0 {
		return
	}
	fmt.Fprintf(o.out, "epoch %.4fs, shares: io=%.3f exchange=%.3f fwbw=%.3f gewu=%.3f gewu_wait=%.3f validate=%.3f unattributed=%.3f checkpoint=%.3f\n",
		epochWall, m["train.io_s_per_epoch"]/epochWall, m["train.exchange_s_per_epoch"]/epochWall,
		m["train.fwbw_s_per_epoch"]/epochWall, gewu/epochWall, m["train.gewu_wait_s_per_epoch"]/epochWall,
		m["train.validate_s_per_epoch"]/epochWall,
		m["train.unattributed_share"],
		(m["checkpoint.encode_us"]/1e6+m["checkpoint.write_commit_ms"]/1e3)/epochWall)
}

// timeLoop calls fn until budget has elapsed and at least minIters calls
// were made, and returns the number of calls.
func timeLoop(budget time.Duration, minIters int, fn func() error) (int, time.Duration, error) {
	start := time.Now()
	n := 0
	for ; n < minIters || time.Since(start) < budget; n++ {
		if err := fn(); err != nil {
			return n, time.Since(start), err
		}
	}
	return n, time.Since(start), nil
}

// layerDims lists the model's Linear layer widths, input first.
func layerDims(spec nn.ModelSpec) []int {
	return append(append([]int{spec.InputDim}, spec.Hidden...), spec.Classes)
}

// probeTensor times the three GEMM calls a Linear layer makes per batch
// (forward x·W, weight gradient xᵀ·dy, input gradient dy·Wᵀ) at every
// layer shape of the model, and checks one forward product against the
// ascending-k reference the kernels promise to match bit for bit.
func probeTensor(e *env, budget time.Duration, m map[string]float64) error {
	b := e.w.batch
	dims := layerDims(e.spec)
	type shapes struct{ x, wt, y, dy, gw, dx *tensor.Matrix }
	var ls []shapes
	var flops float64
	fill := func(t *tensor.Matrix, salt int) *tensor.Matrix {
		for i := range t.Data {
			t.Data[i] = float32((i*7+salt)%13-6) / 8
		}
		return t
	}
	for i := 0; i+1 < len(dims); i++ {
		in, out := dims[i], dims[i+1]
		ls = append(ls, shapes{
			x: fill(tensor.New(b, in), 1), wt: fill(tensor.New(in, out), 2),
			y: tensor.New(b, out), dy: fill(tensor.New(b, out), 3),
			gw: tensor.New(in, out), dx: tensor.New(b, in),
		})
		flops += 3 * 2 * float64(b*in*out)
	}
	n, d, _ := timeLoop(budget, 20, func() error {
		for _, l := range ls {
			tensor.MatMulInto(l.y, l.x, l.wt)
			tensor.MatMulTAInto(l.gw, l.x, l.dy)
			tensor.MatMulTBInto(l.dx, l.dy, l.wt)
		}
		return nil
	})
	perBatch := d.Seconds() / float64(n)
	m["tensor.matmul_us_per_batch"] = perBatch * 1e6
	m["tensor.matmul_gflops"] = flops / perBatch / 1e9
	for _, l := range ls {
		for i := 0; i < l.y.Rows; i++ {
			for j := 0; j < l.y.Cols; j++ {
				var c float32
				for k := 0; k < l.x.Cols; k++ {
					c += float32(l.x.Data[i*l.x.Cols+k] * l.wt.Data[k*l.wt.Cols+j])
				}
				if got := l.y.Data[i*l.y.Cols+j]; math.Float32bits(got) != math.Float32bits(c) {
					return fmt.Errorf("MatMulInto %dx%d·%dx%d [%d,%d] = %v, reference %v",
						l.x.Rows, l.x.Cols, l.wt.Rows, l.wt.Cols, i, j, got, c)
				}
			}
		}
	}
	return nil
}

// probeBatch returns the first b samples the workload can see in memory
// as a batch tensor and labels.
func probeBatch(e *env) (*tensor.Matrix, []int) {
	src := e.cfg.Dataset.Val
	if e.ds != nil {
		src = e.ds.Train
	}
	b, dim := e.w.batch, e.cfg.Dataset.FeatureDim
	x := tensor.New(b, dim)
	y := make([]int, b)
	for i := 0; i < b; i++ {
		copy(x.Row(i), src[i].Features)
		y[i] = src[i].Label
	}
	return x, y
}

// probeNN times one training step of the workload's model split into
// forward (with loss), backward and optimizer step, with the step arena
// the trainer uses, and counts the heap bytes a step allocates.
func probeNN(e *env, budget time.Duration, m map[string]float64) error {
	model, err := e.spec.Build(e.cfg.Seed, e.cfg.Seed+1000)
	if err != nil {
		return err
	}
	ar := arena.New(0)
	model.SetArena(ar)
	var loss nn.SoftmaxCrossEntropy
	loss.SetArena(ar)
	opt := nn.NewSGD(0.9, 1e-4)
	params := model.Params()
	x, y := probeBatch(e)
	var fwd, bwd, step time.Duration
	var last float64
	stepOnce := func() error {
		t0 := time.Now()
		ar.Reset()
		last = loss.Forward(model.Forward(x, true), y)
		t1 := time.Now()
		model.Backward(loss.Backward())
		t2 := time.Now()
		opt.Step(params, e.w.lr)
		t3 := time.Now()
		fwd += t1.Sub(t0)
		bwd += t2.Sub(t1)
		step += t3.Sub(t2)
		if math.IsNaN(last) || math.IsInf(last, 0) {
			return fmt.Errorf("training step loss %v", last)
		}
		return nil
	}
	// Warm the arena and workspaces so the count is steady state.
	for i := 0; i < 3; i++ {
		if err := stepOnce(); err != nil {
			return err
		}
	}
	fwd, bwd, step = 0, 0, 0
	a0 := totalAlloc()
	n, _, err := timeLoop(budget, 20, stepOnce)
	alloc := totalAlloc() - a0
	if err != nil {
		return err
	}
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(n) }
	m["nn.forward_us_per_batch"] = us(fwd)
	m["nn.backward_us_per_batch"] = us(bwd)
	m["nn.step_us_per_batch"] = us(step)
	m["nn.alloc_bytes_per_batch"] = float64(alloc) / float64(n)
	return nil
}

// probeMPI times the ring all-reduce over the workload's world on a
// buffer the length of the model's gradient, and checks the sum.
func probeMPI(e *env, budget time.Duration, m map[string]float64) error {
	model, err := e.spec.Build(e.cfg.Seed, e.cfg.Seed)
	if err != nil {
		return err
	}
	length := model.NumParams()
	size := len(e.world.comms)
	want := float32(size * (size + 1) / 2)
	var mu sync.Mutex
	var times []float64
	var wire int64
	calls := 0
	err = e.world.run(func(c *mpi.Comm) error {
		buf := make([]float32, length)
		once := func() (time.Duration, int64, error) {
			for i := range buf {
				buf[i] = float32(c.Rank() + 1)
			}
			t0 := time.Now()
			sent, recv := mpi.AllreduceWire(c, buf, mpi.OpSum)
			d := time.Since(t0)
			for i, v := range buf {
				if v != want {
					return d, 0, fmt.Errorf("rank %d: allreduce element %d = %v, want %v", c.Rank(), i, v, want)
				}
			}
			return d, sent + recv, nil
		}
		// Every rank must make the same number of calls: rank 0 sizes the
		// loop from three whole warm-up calls (fill, all-reduce and check;
		// on one rank the all-reduce alone is nearly free) and broadcasts
		// it.
		t0 := time.Now()
		for i := 0; i < 3; i++ {
			if _, _, err := once(); err != nil {
				return err
			}
		}
		iters := []int{int(budget / (time.Since(t0)/3 + time.Microsecond))}
		mpi.Bcast(c, iters, 0)
		iters[0] = max(iters[0], 10)
		var local []float64
		var bytes int64
		for i := 0; i < iters[0]; i++ {
			d, wb, err := once()
			if err != nil {
				return err
			}
			local = append(local, d.Seconds()*1e6)
			bytes += wb
		}
		mu.Lock()
		defer mu.Unlock()
		wire += bytes
		if c.Rank() == 0 {
			times, calls = local, iters[0]
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["mpi.allreduce_us"] = median(times)
	m["mpi.allreduce_wire_bytes"] = float64(wire) / float64(calls)
	return nil
}

// probeShuffle drives the partial-local exchange scheduler's four phases
// on the workload's world, with the workload's Q, sample encoding, dedup
// setting and per-iteration chunking, for as many epochs as a job trains,
// and checks that every rank keeps its share of the dataset.
func probeShuffle(e *env, _ time.Duration, m map[string]float64) error {
	w := e.w
	n := len(e.ds.Train)
	parts, err := shuffle.Partition(n, w.ranks, e.cfg.Seed)
	if err != nil {
		return err
	}
	enc, err := data.ParseEncoding(e.cfg.SampleEncoding)
	if err != nil {
		return err
	}
	type acc struct {
		sched, comm, sync, clean time.Duration
		wire, sent, recvd, hits  int64
	}
	var mu sync.Mutex
	var total acc
	err = e.world.run(func(c *mpi.Comm) error {
		local := store.NewLocal(0)
		for _, id := range parts[c.Rank()] {
			if err := local.Put(e.ds.Train[id]); err != nil {
				return err
			}
		}
		s, err := shuffle.NewScheduler(c, local, w.strategy.Q, n, e.cfg.Seed)
		if err != nil {
			return err
		}
		if err := s.SetSampleEncoding(enc); err != nil {
			return err
		}
		if e.cfg.WireDedup {
			if err := s.SetWireDedup(train.DefaultWireDedupBudget); err != nil {
				return err
			}
		}
		share := len(parts[c.Rank()])
		iters := n / w.ranks / w.batch
		var a acc
		for ep := 0; ep < w.epochs; ep++ {
			t0 := time.Now()
			if err := s.Scheduling(ep); err != nil {
				return err
			}
			t1 := time.Now()
			chunk := (s.Slots() + iters - 1) / iters
			for it := 0; it < iters && chunk > 0; it++ {
				if _, err := s.Communicate(chunk); err != nil {
					return err
				}
			}
			t2 := time.Now()
			if err := s.Synchronize(); err != nil {
				return err
			}
			t3 := time.Now()
			sent, recv := s.WireTraffic()
			hits, _ := s.DedupStats()
			sentSlots, recvd := int64(s.Slots()), int64(len(s.Received()))
			if err := s.CleanLocalStorage(); err != nil {
				return err
			}
			t4 := time.Now()
			if local.Len() != share {
				return fmt.Errorf("rank %d holds %d samples after epoch %d, want %d", c.Rank(), local.Len(), ep, share)
			}
			a.sched += t1.Sub(t0)
			a.comm += t2.Sub(t1)
			a.sync += t3.Sub(t2)
			a.clean += t4.Sub(t3)
			a.wire += sent + recv
			a.sent += sentSlots
			a.recvd += recvd
			a.hits += int64(hits)
		}
		mu.Lock()
		defer mu.Unlock()
		total.sched += a.sched
		total.comm += a.comm
		total.sync += a.sync
		total.clean += a.clean
		total.wire += a.wire
		total.sent += a.sent
		total.recvd += a.recvd
		total.hits += a.hits
		return nil
	})
	if err != nil {
		return err
	}
	k := float64(w.ranks * w.epochs)
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 / k }
	m["shuffle.scheduling_us"] = us(total.sched)
	m["shuffle.communicate_us"] = us(total.comm)
	m["shuffle.synchronize_us"] = us(total.sync)
	m["shuffle.clean_us"] = us(total.clean)
	if total.sent > 0 {
		// Wire bytes count both directions, so they are divided by sent
		// plus received slots; dedup hits are counted by senders.
		m["shuffle.wire_bytes_per_moved_sample"] = float64(total.wire) / float64(total.sent+total.recvd)
		m["shuffle.dedup_hit_ratio"] = float64(total.hits) / float64(total.sent)
	}
	return nil
}

// probeData times the exchange's sample-batch encoding and decoding at
// the batch size one iteration ships (Q·b samples), checks the round trip
// is lossless, and times compressing the encoded batch.
func probeData(e *env, budget time.Duration, m map[string]float64) error {
	enc, err := data.ParseEncoding(e.cfg.SampleEncoding)
	if err != nil {
		return err
	}
	k := max(1, int(math.Ceil(e.w.strategy.Q*float64(e.w.batch))))
	batch := e.ds.Train[:k]
	var buf []byte
	var dec []data.Sample
	n, d, _ := timeLoop(budget/3, 50, func() error {
		buf = data.AppendSampleBatchEnc(buf[:0], batch, enc)
		return nil
	})
	m["data.encode_ns_per_sample"] = float64(d.Nanoseconds()) / float64(n*k)
	n, d, err = timeLoop(budget/3, 50, func() error {
		var err error
		dec, err = data.DecodeSampleBatchInto(dec[:0], buf)
		return err
	})
	if err != nil {
		return err
	}
	m["data.decode_ns_per_sample"] = float64(d.Nanoseconds()) / float64(n*k)
	for i, s := range dec {
		if s.ID != batch[i].ID || s.Label != batch[i].Label || len(s.Features) != len(batch[i].Features) {
			return fmt.Errorf("decoded sample %d is (id %d, label %d), encoded (id %d, label %d)", i, s.ID, s.Label, batch[i].ID, batch[i].Label)
		}
		for j, f := range s.Features {
			if math.Float32bits(f) != math.Float32bits(batch[i].Features[j]) {
				return fmt.Errorf("decoded sample %d feature %d = %v, encoded %v", i, j, f, batch[i].Features[j])
			}
		}
	}
	sampleSet := e.ds.Train[:min(256, len(e.ds.Train))]
	m["data.fp16_compact_ratio"] = float64(data.SampleBatchWireSizeEnc(sampleSet, data.EncodingFP16Exact)) /
		float64(data.SampleBatchWireSizeEnc(sampleSet, data.EncodingFP32))

	var z, back []byte
	n, d, _ = timeLoop(budget/3, 50, func() error {
		z = wirecomp.Encode(z[:0], buf)
		return nil
	})
	m["wirecomp.encode_ns_per_kib"] = float64(d.Nanoseconds()) / float64(n) / (float64(len(buf)) / 1024)
	if back, err = wirecomp.Decode(back, z); err != nil {
		return err
	}
	if string(back) != string(buf) {
		return fmt.Errorf("wirecomp round trip changed a %d-byte batch", len(buf))
	}
	return nil
}

// probeStore times reading every sample of one ingested shard into a
// feature buffer, and checks each entry's sample ID.
func probeStore(e *env, budget time.Duration, m map[string]float64) error {
	man := e.store.Manifest()
	sh, err := shard.Open(shard.Path(e.store.Dir(), 0))
	if err != nil {
		return err
	}
	defer sh.Close()
	feat := make([]float32, man.FeatureDim)
	n, d, err := timeLoop(budget, 10, func() error {
		for i := 0; i < sh.Count(); i++ {
			id, _, _, _, err := sh.ReadInto(i, feat)
			if err != nil {
				return err
			}
			if id != i {
				return fmt.Errorf("shard 0 entry %d holds sample %d", i, id)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["shard.read_ns_per_sample"] = float64(d.Nanoseconds()) / float64(n*sh.Count())
	return nil
}

// probeCheckpoint reads rank 0's newest snapshot the last traced job
// committed, times re-encoding its sections (the image must come out
// byte-identical) and durably writing and committing it.
func probeCheckpoint(e *env, base string, budget time.Duration, m map[string]float64) error {
	dir, _, err := checkpoint.LoadLatest(base)
	if err != nil {
		return err
	}
	image, err := os.ReadFile(checkpoint.RankPath(dir, 0))
	if err != nil {
		return err
	}
	sections, err := checkpoint.DecodeSnapshot(image)
	if err != nil {
		return err
	}
	m["checkpoint.bytes"] = float64(len(image))
	var out []byte
	n, d, _ := timeLoop(budget/2, 10, func() error {
		out = checkpoint.EncodeSnapshot(sections)
		return nil
	})
	m["checkpoint.encode_us"] = d.Seconds() * 1e6 / float64(n)
	if checkpoint.CRC(out) != checkpoint.CRC(image) || len(out) != len(image) {
		return fmt.Errorf("re-encoded snapshot (%d bytes, crc %08x) differs from the committed one (%d bytes, crc %08x)",
			len(out), checkpoint.CRC(out), len(image), checkpoint.CRC(image))
	}
	probeDir := filepath.Join(e.dir, "ckpt-probe")
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return err
	}
	path := checkpoint.RankPath(probeDir, 0)
	n, d, err = timeLoop(budget/2, 5, func() error {
		if err := checkpoint.WriteTemp(path, out); err != nil {
			return err
		}
		return checkpoint.Commit(path)
	})
	if err != nil {
		return err
	}
	m["checkpoint.write_commit_ms"] = d.Seconds() * 1e3 / float64(n)
	return nil
}
