package f32le

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// edgeBits are float32 bit patterns whose bytes a conversion (rather than
// a copy) could alter: quiet and signalling NaNs with payload bits, ±0,
// ±Inf, the smallest and largest denormals, and the extremes.
var edgeBits = []uint32{
	0x7fc00000, 0x7fc00001, 0xffc00001, // quiet NaNs, payload and sign bits
	0x7f800001, 0xff800001, 0x7fbfffff, // signalling NaNs
	0x7fffffff, 0xffffffff, // all-ones mantissa NaNs
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
	0x00800000, 0x7f7fffff, 0xff7fffff, // smallest normal, ±max
}

// cases returns the slices every identity test runs over: empty, the edge
// patterns alone, and random bit patterns of several lengths with the edge
// patterns spliced in.
func cases() [][]float32 {
	out := [][]float32{nil, {}}
	edge := make([]float32, len(edgeBits))
	for i, b := range edgeBits {
		edge[i] = math.Float32frombits(b)
	}
	out = append(out, edge)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 7, 64, 1000, 65536} {
		v := make([]float32, n)
		for i := range v {
			v[i] = math.Float32frombits(rng.Uint32())
		}
		for i := 0; i < n; i += 1 + rng.Intn(17) {
			v[i] = edge[rng.Intn(len(edge))]
		}
		out = append(out, v)
	}
	return out
}

// reference encodes v one element at a time, independently of both code
// paths under test.
func reference(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
	return b
}

func sameBits(t *testing.T, what string, got, want []float32) {
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

// TestWireBytesAppendMatchesReference pins the wire bytes: the host path
// and the big-endian fallback both produce exactly the per-element
// reference encoding, appended after whatever dst already holds.
func TestWireBytesAppendMatchesReference(t *testing.T) {
	prefix := []byte{0xAA, 0xBB, 0xCC}
	for _, v := range cases() {
		want := append(append([]byte(nil), prefix...), reference(v)...)
		for name, fn := range map[string]func([]byte, []float32) []byte{
			"host":     AppendFloat32s,
			"portable": appendFloat32sPortable,
		} {
			got := fn(append([]byte(nil), prefix...), v)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s encode of %d values differs from the reference", name, len(v))
			}
		}
	}
}

// TestWireBytesDecodeRoundTrip decodes the reference bytes through both
// paths, from every byte alignment of the source buffer, and checks each
// value's bit pattern survives.
func TestWireBytesDecodeRoundTrip(t *testing.T) {
	for _, v := range cases() {
		enc := reference(v)
		for off := 0; off < 4; off++ {
			src := append(make([]byte, off), enc...)[off:]
			for name, fn := range map[string]func([]float32, []byte){
				"host":     DecodeFloat32s,
				"portable": decodeFloat32sPortable,
			} {
				got := make([]float32, len(v))
				fn(got, src)
				sameBits(t, name, got, v)
			}
		}
	}
}

// TestWireBytesDecodeReadsOnlyItsPrefix checks that DecodeFloat32s stops
// after 4*len(dst) bytes, and panics rather than reading past a short
// source.
func TestWireBytesDecodeReadsOnlyItsPrefix(t *testing.T) {
	v := []float32{1, -2, 3}
	src := append(reference(v), 0xFF, 0xFF, 0xFF, 0xFF)
	got := make([]float32, 3)
	DecodeFloat32s(got, src)
	sameBits(t, "prefix", got, v)

	defer func() {
		if recover() == nil {
			t.Fatal("DecodeFloat32s accepted a source shorter than 4*len(dst)")
		}
	}()
	DecodeFloat32s(make([]float32, 4), src[:15])
}

// TestBulkPathAllocatesNothing pins the point of the package: encoding
// into a buffer with room and decoding into an existing slice are plain
// copies.
func TestBulkPathAllocatesNothing(t *testing.T) {
	v := make([]float32, 4096)
	buf := make([]byte, 0, 4*len(v))
	out := make([]float32, len(v))
	if n := testing.AllocsPerRun(50, func() {
		buf = AppendFloat32s(buf[:0], v)
		DecodeFloat32s(out, buf)
	}); n != 0 {
		t.Fatalf("encode+decode allocates %.1f times, want 0", n)
	}
}
