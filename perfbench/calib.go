package main

import (
	"runtime"
	"sync"
	"time"
)

// The shared host's speed drifts by tens of percent over seconds to
// minutes (a fixed loop's time moves by up to 2x while the process's CPU
// time moves with it, so it is the hardware that slows, not scheduling).
// Throughput and set-up time measured raw would report that drift. So an
// end-to-end run also times a fixed reference computation, written here
// and so unchanged by any change to the program, and scales its time
// metrics to a reference host on which that computation takes
// calNominal seconds. The computation runs while no program work does, so
// a change to the program moves the scaled metrics exactly as it moves
// the raw ones. Much of the host's drift cancels out, not all: contention
// that slows memory copies more than the trainer's GEMM leaves an error.

// calNominal is about the fastest the reference computation ran on a
// 2-vCPU Xeon VM with AVX-512.
const calNominal = 0.070

// calibrate runs the reference computation on every core at once and
// returns its wall time in seconds. It copies memory within buffers that
// fit a core's L2 cache and within 8 MiB buffers that spill out of it,
// the memory tiers the trainer's GEMM, exchange and storage paths lean
// on.
func calibrate() float64 {
	workers := runtime.GOMAXPROCS(0)
	bufs := make([][4][]byte, workers)
	for i := range bufs {
		bufs[i] = [4][]byte{filled(256 << 10), filled(256 << 10), filled(8 << 20), filled(8 << 20)}
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, b := range bufs {
		wg.Add(1)
		go func(b [4][]byte) {
			defer wg.Done()
			copyLoop(b[0], b[1], 2000)
			copyLoop(b[2], b[3], 30)
		}(b)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

func filled(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

// copyLoop copies x to y and back reps times.
func copyLoop(x, y []byte, reps int) {
	for r := 0; r < reps; r++ {
		copy(y, x)
		copy(x, y)
	}
}
