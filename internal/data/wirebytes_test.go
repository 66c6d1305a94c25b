package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// edgeFeatures returns float32s whose bytes a conversion (rather than a
// copy) could alter: NaNs with payload and sign bits (quiet and
// signalling), ±0, ±Inf and denormals. None of the NaNs or denormals is
// fp16-representable, so a v2 batch carries them as an fp32 entry.
func edgeFeatures() []float32 {
	bits := []uint32{
		0x7fc00001, 0xffc00001, 0x7f800001, 0x7fffffff,
		0x00000000, 0x80000000, 0x7f800000, 0xff800000,
		0x00000001, 0x807fffff, 0x3f800000,
	}
	out := make([]float32, len(bits))
	for i, b := range bits {
		out[i] = math.Float32frombits(b)
	}
	return out
}

// TestWireBytesFP32Samples pins the fp32 sample encodings — a single
// sample, the v1 batch and a v2 fp32 entry — to per-element reference
// bytes, and checks each decoder returns every feature's bit pattern.
func TestWireBytesFP32Samples(t *testing.T) {
	s := Sample{ID: 3, Label: 1, Bytes: 4096, Features: edgeFeatures()}
	feats := make([]byte, 0, 4*len(s.Features))
	for _, f := range s.Features {
		feats = binary.LittleEndian.AppendUint32(feats, math.Float32bits(f))
	}
	sameFeatures := func(what string, got []float32) {
		t.Helper()
		if len(got) != len(s.Features) {
			t.Fatalf("%s: %d features, want %d", what, len(got), len(s.Features))
		}
		for i, f := range s.Features {
			if math.Float32bits(got[i]) != math.Float32bits(f) {
				t.Fatalf("%s: feature %d bits %#08x, want %#08x", what, i, math.Float32bits(got[i]), math.Float32bits(f))
			}
		}
	}

	one := binary.LittleEndian.AppendUint64(nil, 3)
	one = binary.LittleEndian.AppendUint64(one, 1)
	one = binary.LittleEndian.AppendUint64(one, 4096)
	one = binary.LittleEndian.AppendUint32(one, uint32(len(s.Features)))
	one = append(one, feats...)
	if !bytes.Equal(s.Encode(), one) {
		t.Fatal("Sample.Encode differs from the reference bytes")
	}
	got, err := DecodeSample(one)
	if err != nil {
		t.Fatal(err)
	}
	sameFeatures("DecodeSample", got.Features)

	v1 := append(binary.LittleEndian.AppendUint32(nil, 2), one...)
	v1 = append(v1, one...)
	if !bytes.Equal(EncodeSampleBatch([]Sample{s, s}), v1) {
		t.Fatal("v1 batch differs from the reference bytes")
	}
	batch, err := DecodeSampleBatch(v1)
	if err != nil {
		t.Fatal(err)
	}
	sameFeatures("v1 batch", batch[1].Features)

	v2 := binary.LittleEndian.AppendUint32(nil, 1|batchV2Flag)
	v2 = append(v2, entryFP32, 3, 1)
	v2 = binary.AppendUvarint(v2, 4096)
	v2 = binary.AppendUvarint(v2, uint64(len(s.Features)))
	v2 = append(v2, feats...)
	if !bytes.Equal(AppendSampleBatchEnc(nil, []Sample{s}, EncodingFP16Exact), v2) {
		t.Fatal("v2 fp32 entry differs from the reference bytes")
	}
	batch, err = DecodeSampleBatch(v2)
	if err != nil {
		t.Fatal(err)
	}
	sameFeatures("v2 batch", batch[0].Features)
}
