//go:build !race

// Allocation bound for the gradient all-reduce over real sockets. It lives
// in the external test package because the TCP world comes from the
// transporttest harness (which imports mpi), and it is excluded from race
// builds, where instrumentation and sync.Pool's randomized caching make
// allocation counts meaningless.
package mpi_test

import (
	"runtime"
	"testing"

	"plshuffle/internal/mpi"
	"plshuffle/internal/transport/transporttest"
)

// TestAllreduceWireTCPSteadyStateAllocBytes bounds the bytes a steady-state
// 2-rank TCP AllreduceWire allocates over a 65536-element float32 gradient,
// the flat gradient sync's shape on the benchmark's 2-rank workloads. Each
// ring step's received chunk (32768 floats, 128 KiB) is decoded into a
// pooled slice that the ring hands back once reduced or copied, so what is
// left is per-frame bookkeeping: the decoded value's interface box, the
// Request and mailbox entries — about 1 KiB per op across both ranks.
// Decoding into a fresh slice per chunk, as before the pool, costs ~600
// KB/op, so the 8 KiB budget fails loudly if that ever comes back.
func TestAllreduceWireTCPSteadyStateAllocBytes(t *testing.T) {
	const (
		elems  = 65536
		iters  = 200
		budget = 8 << 10
	)
	var perOp float64
	err := transporttest.TCP().Run(2, func(c *mpi.Comm) error {
		buf := make([]float32, elems)
		for i := range buf {
			buf[i] = float32(c.Rank())
		}
		// Warm up the pools and scratch buffers on both ranks.
		for i := 0; i < 10; i++ {
			mpi.AllreduceWire(c, buf, mpi.OpSum)
		}
		c.Barrier()
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		// Release both ranks together after rank 0's baseline read, and
		// gather to rank 0 as the stop line (as in the inproc bound).
		mpi.Bcast(c, []int32{1}, 0)
		for i := 0; i < iters; i++ {
			mpi.AllreduceWire(c, buf, mpi.OpSum)
		}
		mpi.Gather(c, []int32{int32(c.Rank())}, 0)
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perOp = float64(m1.TotalAlloc-m0.TotalAlloc) / iters
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if perOp > budget {
		t.Fatalf("steady-state 2-rank TCP AllreduceWire allocates %.0f B/op, budget %d", perOp, budget)
	}
	t.Logf("steady-state 2-rank TCP AllreduceWire: %.0f B/op (%d float32)", perOp, elems)
}
