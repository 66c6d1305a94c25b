package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store/shard"
	"plshuffle/internal/trace"
	"plshuffle/internal/train"
	"plshuffle/internal/transport"
)

// workload is one named benchmark configuration. A training job is one
// train.RunRank call per rank for a fixed number of epochs, so its
// accuracy and loss depend only on the seed, never on machine speed.
type workload struct {
	name     string
	ranks    int
	strategy shuffle.Strategy
	spec     data.SyntheticSpec // Seed is filled in from --seed
	model    string
	batch    int
	epochs   int
	lr       float32
	overlap  bool
	// lean turns on the wire-lean exchange: dedup, compression and
	// fp16exact sample encoding.
	lean  bool
	corgi *corgiSpec
	// accFloor is the lowest final validation accuracy a correct run
	// reaches on any seed.
	accFloor float64
}

// corgiSpec is the storage side of the corgi2 workload.
type corgiSpec struct {
	samplesPerShard int
	cacheBytes      int64
	pfs             shard.PFSOptions
	checkpoint      bool
}

// exchangeSpec gives samples of about 2 KiB on the wire (512 float32
// features); the class separation keeps validation accuracy near 0.7.
func exchangeSpec(n, val int) data.SyntheticSpec {
	return data.SyntheticSpec{Name: "perfbench-2k", NumSamples: n, NumVal: val,
		Classes: 32, FeatureDim: 512, ClassSep: 4.5, NoiseStd: 1.2}
}

func workloads() []workload {
	pls := workload{
		name: "pls-tcp", ranks: 2, strategy: shuffle.Partial(0.5),
		spec: exchangeSpec(8192, 2048), model: "resnet50", batch: 16, epochs: 4,
		lr: 0.05, overlap: true, accFloor: 0.55,
	}
	lean := pls
	lean.name, lean.lean = "pls-lean-tcp", true
	return []workload{
		pls,
		lean,
		{
			name: "gs-1rank", ranks: 1, strategy: shuffle.GlobalShuffling(),
			spec: data.SyntheticSpec{Name: "perfbench-gs", NumSamples: 8192, NumVal: 4096,
				Classes: 32, FeatureDim: 192, ClassSep: 5, NoiseStd: 1.4},
			model: "resnet50", batch: 16, epochs: 4, lr: 0.05, overlap: true, accFloor: 0.6,
		},
		{
			name: "corgi2-ckpt", ranks: 2, strategy: shuffle.Corgi2Shuffling(1),
			spec: exchangeSpec(8192, 2048), model: "resnet50", batch: 16, epochs: 4,
			lr: 0.05, accFloor: 0.55,
			corgi: &corgiSpec{samplesPerShard: 64, cacheBytes: 1 << 20,
				pfs:        shard.PFSOptions{BytesPerSec: 64 << 20, PerShardLatency: time.Millisecond},
				checkpoint: true},
		},
	}
}

// shrink scales a workload down to a size that runs in well under a
// second, for the smoke test.
func (w workload) shrink() workload {
	w.spec.NumSamples, w.spec.NumVal = 512, 256
	w.epochs = 2
	if w.corgi != nil {
		c := *w.corgi
		c.samplesPerShard = 32
		c.cacheBytes = 256 << 10
		w.corgi = &c
	}
	w.accFloor = 0
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// env is one set-up of a workload: its inputs, the world and the training
// configuration every job reuses.
type env struct {
	w     workload
	dir   string
	ds    *data.Dataset // full dataset; nil under corgi2, which reads from store
	store *shard.Dataset
	world *world
	cfg   train.Config
	spec  nn.ModelSpec
	// perJob is the number of training samples one job consumes across
	// all ranks.
	perJob int64
}

// setup builds everything a job needs, in the order a real run does:
// proxy data generation, shard ingest and open, world rendezvous, and the
// first model build.
func setup(w workload, seed uint64, dir string, sp *spans) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	root, end := sp.begin("setup", 0, -1)
	defer end(1)
	e := &env{w: w, dir: dir}

	_, endData := sp.begin("data.Generate", root, -1)
	spec := w.spec
	spec.Seed = seed
	ds, err := data.Generate(spec)
	if err != nil {
		return nil, err
	}
	// Simulated sample sizes are the real encoded sizes, so byte volumes
	// the trainer reports for store reads are bytes that would move.
	ds.SampleBytes = int64(ds.Train[0].WireSize())
	for i := range ds.Train {
		ds.Train[i].Bytes = ds.SampleBytes
	}
	for i := range ds.Val {
		ds.Val[i].Bytes = ds.SampleBytes
	}
	endData(int64(len(ds.Train) + len(ds.Val)))

	trainDS := ds
	if c := w.corgi; c != nil {
		_, endIngest := sp.begin("shard.Ingest", root, -1)
		shards := filepath.Join(dir, "shards")
		if _, err := shard.Ingest(shards, ds, c.samplesPerShard); err != nil {
			return nil, err
		}
		if e.store, err = shard.OpenDataset(shards); err != nil {
			return nil, err
		}
		e.store.SetPFSOptions(c.pfs)
		if trainDS, err = e.store.Proxy(); err != nil {
			return nil, err
		}
		endIngest(int64(len(ds.Train)))
	} else {
		e.ds = ds
	}

	_, endWorld := sp.begin("world.open", root, -1)
	if e.world, err = openWorld(w.ranks, w.lean); err != nil {
		return nil, err
	}
	endWorld(int64(w.ranks))

	_, endModel := sp.begin("model.Build", root, -1)
	proxy, err := nn.ProxySpec(w.model)
	if err != nil {
		e.close()
		return nil, err
	}
	e.spec = proxy.WithData(trainDS.FeatureDim, trainDS.Classes)
	for r := 0; r < w.ranks; r++ {
		if _, err := e.spec.Build(seed, seed+uint64(1000+r)); err != nil {
			e.close()
			return nil, err
		}
	}
	endModel(int64(w.ranks))

	e.cfg = train.Config{
		Workers:      w.ranks,
		Strategy:     w.strategy,
		Dataset:      trainDS,
		Model:        e.spec,
		Epochs:       w.epochs,
		BatchSize:    w.batch,
		BaseLR:       w.lr,
		Momentum:     0.9,
		WeightDecay:  1e-4,
		Seed:         seed,
		OverlapGrads: w.overlap,
		ShardStore:   e.store,
	}
	if w.lean {
		e.cfg.WireDedup = true
		e.cfg.SampleEncoding = "fp16exact"
	}
	if c := w.corgi; c != nil {
		e.cfg.CacheBytes = c.cacheBytes
	}
	if err := e.cfg.Validate(); err != nil {
		e.close()
		return nil, err
	}
	for ep := 0; ep < w.epochs; ep++ {
		n, err := trainedPerEpoch(e.cfg, ep)
		if err != nil {
			e.close()
			return nil, err
		}
		e.perJob += n
	}
	return e, nil
}

func (e *env) close() error {
	if e.world == nil {
		return nil
	}
	err := e.world.close()
	e.world = nil
	return err
}

// trainedPerEpoch is the number of samples all ranks train on in one
// epoch: every rank runs the same number of full local batches, set by the
// smallest local share (drop-last, as the trainer does).
func trainedPerEpoch(cfg train.Config, epoch int) (int64, error) {
	m := cfg.Workers
	minLocal := len(cfg.Dataset.Train) / m
	if cfg.Strategy.Kind == shuffle.Corgi2 {
		man := cfg.ShardStore.Manifest()
		assign, err := shuffle.Corgi2Assign(man.NumShards, m, cfg.Seed, cfg.Strategy.EpochGroup(epoch))
		if err != nil {
			return 0, err
		}
		minLocal = math.MaxInt
		for _, shards := range assign {
			n := 0
			for _, sh := range shards {
				n += man.ShardSamples(sh)
			}
			minLocal = min(minLocal, n)
		}
	}
	b := min(cfg.BatchSize, minLocal)
	return int64(minLocal / b * b * m), nil
}

// jobResult is the outcome of one training job.
type jobResult struct {
	ranks    []*train.RankResult
	rankWall []time.Duration
	wall     time.Duration
	// socket is the job's transport counter delta over all ranks (zero in
	// a one-rank world, which has no sockets).
	socket transport.Stats
	crc    uint32
	ckpt   string // checkpoint directory, when the workload checkpoints
}

// runJob trains one job on every rank of the world. rec, when non-nil,
// collects the trainer's per-phase trace events.
func (e *env) runJob(idx int, rec *trace.Recorder, sp *spans) (*jobResult, error) {
	cfg := e.cfg
	cfg.Trace = rec
	jr := &jobResult{ranks: make([]*train.RankResult, e.w.ranks), rankWall: make([]time.Duration, e.w.ranks)}
	if c := e.w.corgi; c != nil && c.checkpoint {
		jr.ckpt = filepath.Join(e.dir, fmt.Sprintf("ckpt-job%d", idx))
		if err := os.RemoveAll(jr.ckpt); err != nil {
			return nil, err
		}
		cfg.CheckpointDir = jr.ckpt
	}
	before := e.world.stats()
	root, end := sp.begin("job", 0, -1)
	t0 := time.Now()
	var mu sync.Mutex
	err := e.world.run(func(c *mpi.Comm) error {
		_, endRank := sp.begin("train.RunRank", root, c.Rank())
		tr := time.Now()
		rr, err := train.RunRank(c, cfg)
		d := time.Since(tr)
		endRank(int64(e.w.epochs))
		if err != nil {
			return err
		}
		mu.Lock()
		jr.ranks[c.Rank()], jr.rankWall[c.Rank()] = rr, d
		mu.Unlock()
		return nil
	})
	jr.wall = time.Since(t0)
	end(e.perJob)
	if err != nil {
		return nil, err
	}
	if e.world.tcp {
		after := e.world.stats()
		jr.socket = transport.Stats{
			FramesSent: after.FramesSent - before.FramesSent,
			FramesRecv: after.FramesRecv - before.FramesRecv,
			BytesSent:  after.BytesSent - before.BytesSent,
			BytesRecv:  after.BytesRecv - before.BytesRecv,
		}
	}
	return jr, nil
}

// weightsCRC is the crc32c of a replica's weights (little-endian float
// bits), the handle two ranks or two runs compare for bitwise equality.
func weightsCRC(params []nn.Param) uint32 {
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	var b [4]byte
	for _, p := range params {
		for _, v := range p.W {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum32()
}

// check validates a finished job and returns one message per failed
// check. want is the crc earlier jobs of this set-up produced (0 for the
// first job): training is deterministic, so every job must repeat it.
func (e *env) check(jr *jobResult, want uint32) []string {
	var fails []string
	for r, rr := range jr.ranks {
		if len(rr.Epochs) != e.w.epochs {
			fails = append(fails, fmt.Sprintf("rank %d trained %d epochs, want %d", r, len(rr.Epochs), e.w.epochs))
			return fails
		}
		crc := weightsCRC(rr.FinalParams)
		if r == 0 {
			jr.crc = crc
		} else if crc != jr.crc {
			fails = append(fails, fmt.Sprintf("rank %d weights crc32c=%08x, rank 0 has %08x", r, crc, jr.crc))
		}
	}
	if want != 0 && jr.crc != want {
		fails = append(fails, fmt.Sprintf("weights crc32c=%08x, an earlier job of the same inputs gave %08x", jr.crc, want))
	}
	last := jr.ranks[0].Epochs[e.w.epochs-1]
	if last.ValAcc < e.w.accFloor || math.IsNaN(last.TrainLoss) {
		fails = append(fails, fmt.Sprintf("val_acc %.4f (loss %.4f) below the floor %.2f", last.ValAcc, last.TrainLoss, e.w.accFloor))
	}
	if e.world.tcp {
		var metered int64
		for _, rr := range jr.ranks {
			for _, es := range rr.Epochs {
				metered += es.ExchangeWireBytes + es.GradWireBytes
			}
		}
		if sock := jr.socket.BytesSent + jr.socket.BytesRecv; sock < metered {
			fails = append(fails, fmt.Sprintf("socket counters moved %d bytes, fewer than the %d exchange+gradient bytes the trainer metered", sock, metered))
		}
	}
	return fails
}

// storeBytes sums the bytes the job read from the shared sample store
// (the PFS) over every rank and epoch.
func (jr *jobResult) storeBytes() int64 {
	var n int64
	for _, rr := range jr.ranks {
		for _, es := range rr.Epochs {
			n += es.PFSReadBytes
		}
	}
	return n
}

// totalAlloc reads the process's cumulative heap allocation.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
