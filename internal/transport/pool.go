package transport

import (
	"math/bits"
	"sync"
	"unsafe"
)

// WireBuf is a pooled wire-encoding buffer. Pooling the struct pointer (not
// the raw []byte) avoids the interface-boxing allocation a naked slice would
// pay on every Put. The TCP backend threads WireBufs from Send through the
// per-peer writer queue and back into the pool once the frame is confirmed
// written, so a steady-state send allocates nothing.
type WireBuf struct {
	B []byte
}

// maxPooledWireBuf caps the capacity a buffer may keep when returned to the
// pool. Occasional giants (a full-model gradient frame, a fat sample batch)
// are dropped rather than pinned in memory forever.
const maxPooledWireBuf = 4 << 20

var wireBufPool = sync.Pool{New: func() any { return new(WireBuf) }}

// GetWireBuf fetches a buffer from the pool. Its B slice has length zero but
// retains capacity from earlier use.
func GetWireBuf() *WireBuf {
	return wireBufPool.Get().(*WireBuf)
}

// PutWireBuf returns a buffer to the pool. The caller must not touch wb or
// wb.B afterwards.
func PutWireBuf(wb *WireBuf) {
	if wb == nil {
		return
	}
	if cap(wb.B) > maxPooledWireBuf {
		wb.B = nil
	} else {
		wb.B = wb.B[:0]
	}
	wireBufPool.Put(wb)
}

// Received float32 payloads (decoded gradient chunks, inproc clones) come
// from a size-class pool so a receiver that consumes them right away — the
// all-reduce ring — can return them and keep its steady state free of
// per-chunk allocations. Class k holds backing arrays of capacity 1<<k,
// stored as a pointer to the first element: boxing a pointer in the
// pool's interface allocates nothing, unlike boxing a slice header.
const maxFloat32Class = 22 // 16 MiB arrays; larger ones are left to the GC

var float32Pools [maxFloat32Class + 1]sync.Pool

// GetFloat32s returns a []float32 of length n with unspecified contents.
// The caller owns it outright; it is garbage-collected like any slice
// unless the caller hands it back with PutFloat32s.
func GetFloat32s(n int) []float32 {
	if n == 0 {
		return []float32{}
	}
	k := bits.Len(uint(n - 1)) // smallest class with 1<<k >= n
	if k > maxFloat32Class {
		return make([]float32, n)
	}
	if p, ok := float32Pools[k].Get().(*float32); ok {
		return unsafe.Slice(p, 1<<k)[:n]
	}
	return make([]float32, n, 1<<k)
}

// PutFloat32s returns b's backing array to the pool. Only the sole owner
// of b may call it, after its last use of b: the array is handed to the
// next GetFloat32s. In this repository that is mpi's ring all-reduce,
// which returns each chunk it received once the chunk is reduced or
// copied into place (DESIGN.md §17).
func PutFloat32s(b []float32) {
	c := cap(b)
	if c == 0 {
		return
	}
	k := bits.Len(uint(c)) - 1 // largest class with 1<<k <= c
	if k > maxFloat32Class {
		return
	}
	float32Pools[k].Put(unsafe.SliceData(b[:1]))
}
