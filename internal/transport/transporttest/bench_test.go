package transporttest_test

import (
	"testing"

	"plshuffle/internal/mpi"
	"plshuffle/internal/transport/transporttest"
)

// runAlltoallBench measures personalized all-to-all throughput over one
// backend: every rank sends elems float32s to every other rank per
// operation, the exchange scheduler's wire pattern. Comparing the inproc
// and tcp numbers isolates the cost of the real wire path (codec + framing
// + sockets) against pure in-memory delivery.
func runAlltoallBench(b *testing.B, bk transporttest.Backend, ranks, elems int) {
	b.SetBytes(int64(ranks * (ranks - 1) * elems * 4)) // payload bytes crossing rank boundaries per op
	err := bk.Run(ranks, func(c *mpi.Comm) error {
		send := make([][]float32, c.Size())
		for d := range send {
			send[d] = make([]float32, elems)
			for i := range send[d] {
				send[d][i] = float32(c.Rank()*elems + i)
			}
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			out := mpi.Alltoall(c, send)
			if len(out[0]) != elems {
				b.Errorf("alltoall returned %d elements from rank 0, want %d", len(out[0]), elems)
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAlltoallInproc(b *testing.B) { runAlltoallBench(b, transporttest.Inproc(), 4, 16<<10) }
func BenchmarkAlltoallTCP(b *testing.B)    { runAlltoallBench(b, transporttest.TCP(), 4, 16<<10) }

// BenchmarkAllreduceTCP measures the flat gradient sync's wire path: a
// 2-rank ring AllreduceWire over a 65536-element float32 buffer (the
// gradient length of the 2-rank benchmark workloads) across localhost TCP
// sockets — chunk encode, framing, syscalls, decode and reduction. B/op
// shows whether received chunks are recycled (DESIGN.md §17).
func BenchmarkAllreduceTCP(b *testing.B) {
	const elems = 65536
	b.ReportAllocs()
	b.SetBytes(elems * 4)
	err := transporttest.TCP().Run(2, func(c *mpi.Comm) error {
		buf := make([]float32, elems)
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			mpi.AllreduceWire(c, buf, mpi.OpSum)
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
