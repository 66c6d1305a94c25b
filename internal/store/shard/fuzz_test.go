package shard

import (
	"testing"

	"plshuffle/internal/data"
)

// FuzzFromBytes throws arbitrary byte images at the shard parser. The
// contract under fuzzing: never panic, never index out of bounds — and when
// an image IS accepted, every sample in it must be safely iterable (the
// index invariants parse() enforces are exactly what the readers rely on).
func FuzzFromBytes(f *testing.F) {
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "fuzz", NumSamples: 12, NumVal: 4, Classes: 3,
		FeatureDim: 8, ClassSep: 2, NoiseStd: 1, Bytes: 500, Seed: 11,
	})
	if err != nil {
		f.Fatal(err)
	}
	if img, err := EncodeShard(0, ds.Train); err == nil {
		f.Add(img)
	}
	if img, err := EncodeShard(5, ds.Train[:1]); err == nil {
		f.Add(img)
	}
	if img, err := EncodeShard(1, []data.Sample{{ID: 0, Label: 1, Bytes: 9}}); err == nil {
		f.Add(img) // zero-feature sample
	}
	f.Add([]byte(Magic))
	f.Add([]byte{})

	feat := make([]float32, 64)
	f.Fuzz(func(t *testing.T, img []byte) {
		sh, err := FromBytes(img)
		if err != nil {
			return
		}
		if sh.Count() < 0 {
			t.Fatalf("accepted image with negative count %d", sh.Count())
		}
		for i := 0; i < sh.Count(); i++ {
			s, err := sh.Sample(i)
			if err != nil {
				t.Fatalf("accepted image but Sample(%d) failed: %v", i, err)
			}
			if len(s.Features) <= len(feat) {
				if _, _, _, _, err := sh.ReadInto(i, feat); err != nil {
					t.Fatalf("accepted image but ReadInto(%d) failed: %v", i, err)
				}
			}
		}
	})
}
