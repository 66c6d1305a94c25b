package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"plshuffle/internal/tensor"
)

// edgeFloat32s returns float32s whose bytes a conversion (rather than a
// copy) could alter: NaNs with payload and sign bits (quiet and
// signalling), ±0, ±Inf and denormals.
func edgeFloat32s() []float32 {
	bits := []uint32{
		0x7fc00001, 0xffc00001, 0x7f800001, 0x7fffffff, 0xffffffff,
		0x00000000, 0x80000000, 0x7f800000, 0xff800000,
		0x00000001, 0x807fffff,
	}
	out := make([]float32, len(bits))
	for i, b := range bits {
		out[i] = math.Float32frombits(b)
	}
	return out
}

// float32Cases returns the edge values alone and random bit patterns with
// the edge values spliced in, at a gradient-chunk length among others.
func float32Cases() [][]float32 {
	edge := edgeFloat32s()
	out := [][]float32{{}, edge}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{5, 1000, 32768} {
		v := make([]float32, n)
		for i := range v {
			v[i] = math.Float32frombits(rng.Uint32())
		}
		for i := 0; i < n; i += 1 + rng.Intn(13) {
			v[i] = edge[rng.Intn(len(edge))]
		}
		out = append(out, v)
	}
	return out
}

// le32Reference is the per-element little-endian encoding of v.
func le32Reference(v []float32) []byte {
	b := make([]byte, 0, 4*len(v))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
	}
	return b
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: value %d bits %#08x, want %#08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestWireBytesFloat32Payloads pins the fp32 payload encodings to the
// per-element reference bytes ([]float32 and *tensor.Matrix), and checks
// that decoding and the inproc clone preserve every bit pattern.
func TestWireBytesFloat32Payloads(t *testing.T) {
	for _, v := range float32Cases() {
		enc, err := EncodePayload(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]byte{codeFloat32}, le32Reference(v)...); !bytes.Equal(enc, want) {
			t.Fatalf("[]float32 payload of %d values differs from the reference bytes", len(v))
		}
		got, err := DecodePayload(enc)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "decoded []float32", got.([]float32), v)
		requireSameBits(t, "cloned []float32", ClonePayload(v).([]float32), v)

		m := &tensor.Matrix{Rows: 1, Cols: len(v), Data: v}
		enc, err = EncodePayload(m)
		if err != nil {
			t.Fatal(err)
		}
		want := binary.LittleEndian.AppendUint32([]byte{codeMatrix}, 1)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(v)))
		if want = append(want, le32Reference(v)...); !bytes.Equal(enc, want) {
			t.Fatalf("matrix payload of %d values differs from the reference bytes", len(v))
		}
		gm, err := DecodePayload(enc)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "decoded matrix", gm.(*tensor.Matrix).Data, v)
	}
}

// TestFloat32PoolSizes checks GetFloat32s' length and capacity contract
// across the size classes, including lengths that straddle a class edge,
// a returned array of odd capacity, and the unpooled giant class.
func TestFloat32PoolSizes(t *testing.T) {
	if b := GetFloat32s(0); b == nil || len(b) != 0 {
		t.Fatalf("GetFloat32s(0) = %v, want a non-nil empty slice", b)
	}
	for _, n := range []int{1, 2, 3, 4, 5, 1023, 1024, 1025, 32768, 1<<maxFloat32Class + 1} {
		b := GetFloat32s(n)
		if len(b) != n || cap(b) < n {
			t.Fatalf("GetFloat32s(%d): len %d cap %d", n, len(b), cap(b))
		}
		b[n-1] = 1 // the whole length is writable
		PutFloat32s(b)
	}
	PutFloat32s(make([]float32, 3, 100)) // lands in the 64 class
	for i := 0; i < 4; i++ {
		if b := GetFloat32s(64); len(b) != 64 || cap(b) < 64 {
			t.Fatalf("GetFloat32s(64) after an odd-capacity put: len %d cap %d", len(b), cap(b))
		}
	}
	PutFloat32s(nil)
	PutFloat32s([]float32{})
}

// TestFloat32PoolRecyclesWithoutAllocating pins the steady state the ring
// all-reduce relies on: a Get/Put cycle of one size allocates nothing.
func TestFloat32PoolRecyclesWithoutAllocating(t *testing.T) {
	skipIfRace(t)
	PutFloat32s(GetFloat32s(32768))
	if n := testing.AllocsPerRun(100, func() {
		PutFloat32s(GetFloat32s(32768))
	}); n > 0 {
		t.Fatalf("Get/Put of a pooled []float32 allocates %.1f times, want 0", n)
	}
}
