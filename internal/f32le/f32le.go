// Package f32le moves float32 slices to and from their little-endian byte
// encoding — the layout every fp32 wire frame, sample encoding, shard file
// and checkpoint section in this repository uses (DESIGN.md §17).
//
// On a little-endian host a float32's in-memory bytes already are its
// encoding, so both directions are one memmove through a byte view of the
// float slice. On a big-endian host they fall back to a per-element loop.
// Either way the bytes are identical, NaN payload bits included: a float32
// is copied as its bit pattern, never converted.
//
// The package only ever views a []float32 as bytes, never a []byte as
// floats. A byte buffer may sit at any address (a frame's payload starts
// after a one-byte type code) and is often a reused read scratch, so a
// float view of it could be misaligned or alias bytes that the next read
// overwrites. The byte view of a float slice is always aligned and lives
// only for the duration of the copy.
package f32le

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether this machine stores a word's least
// significant byte first, the condition for the memmove fast path.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// AppendFloat32s appends the little-endian encoding of v (4 bytes per
// element) to dst and returns the extended slice.
func AppendFloat32s(dst []byte, v []float32) []byte {
	if hostLittleEndian {
		return append(dst, bytesOf(v)...)
	}
	return appendFloat32sPortable(dst, v)
}

// DecodeFloat32s fills dst from the first 4*len(dst) bytes of src, the
// little-endian encoding AppendFloat32s writes. It panics if src is
// shorter; callers validate lengths before decoding.
func DecodeFloat32s(dst []float32, src []byte) {
	if len(src) < 4*len(dst) {
		panic("f32le: DecodeFloat32s: source shorter than 4*len(dst)")
	}
	if hostLittleEndian {
		copy(bytesOf(dst), src)
		return
	}
	decodeFloat32sPortable(dst, src)
}

// bytesOf views v's backing array as its 4*len(v) bytes.
func bytesOf(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// appendFloat32sPortable is the byte-order-independent encoder, the path a
// big-endian host takes. Tests call it directly so the fallback is checked
// against the fast path on every host.
func appendFloat32sPortable(dst []byte, v []float32) []byte {
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

// decodeFloat32sPortable is the byte-order-independent decoder (see
// appendFloat32sPortable).
func decodeFloat32sPortable(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
