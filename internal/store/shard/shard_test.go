package shard

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"plshuffle/internal/data"
)

func genDataset(t testing.TB, n int) *data.Dataset {
	t.Helper()
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "shard-test", NumSamples: n, NumVal: n / 4, Classes: 4,
		FeatureDim: 16, ClassSep: 3, NoiseStd: 1.0, Bytes: 1000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestShardRoundTrip(t *testing.T) {
	ds := genDataset(t, 64)
	path := filepath.Join(t.TempDir(), FileName(3))
	if _, err := WriteShard(path, 3, ds.Train); err != nil {
		t.Fatal(err)
	}
	sh, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if sh.ID() != 3 || sh.Count() != len(ds.Train) {
		t.Fatalf("ID=%d Count=%d, want 3, %d", sh.ID(), sh.Count(), len(ds.Train))
	}
	got, err := sh.Samples()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ds.Train {
		g := got[i]
		if g.ID != want.ID || g.Label != want.Label || g.Bytes != want.Bytes {
			t.Fatalf("sample %d metadata mismatch: %+v vs %+v", i, g, want)
		}
		for j := range want.Features {
			if math.Float32bits(g.Features[j]) != math.Float32bits(want.Features[j]) {
				t.Fatalf("sample %d feature %d mismatch", i, j)
			}
		}
	}
}

func TestShardReadInto(t *testing.T) {
	ds := genDataset(t, 16)
	img, err := EncodeShard(0, ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := FromBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	feat := make([]float32, ds.FeatureDim)
	for i, want := range ds.Train {
		id, label, sim, n, err := sh.ReadInto(i, feat)
		if err != nil {
			t.Fatal(err)
		}
		if id != want.ID || label != want.Label || sim != want.Bytes || n != len(want.Features) {
			t.Fatalf("sample %d: got (%d,%d,%d,%d)", i, id, label, sim, n)
		}
		for j := range want.Features {
			if math.Float32bits(feat[j]) != math.Float32bits(want.Features[j]) {
				t.Fatalf("sample %d feature %d mismatch", i, j)
			}
		}
	}
	if _, _, _, _, err := sh.ReadInto(0, make([]float32, 2)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, _, _, _, err := sh.ReadInto(len(ds.Train), feat); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// TestShardReadIntoAllocs pins the hot path at zero allocations.
func TestShardReadIntoAllocs(t *testing.T) {
	ds := genDataset(t, 16)
	img, err := EncodeShard(0, ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := FromBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	feat := make([]float32, ds.FeatureDim)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < sh.Count(); i++ {
			if _, _, _, _, err := sh.ReadInto(i, feat); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadInto allocates %.1f per epoch pass, want 0", allocs)
	}
}

// TestShardRejectsCorruption flips every byte of a valid image, one at a
// time, and requires the parser to reject each mutant: the trailing CRC32C
// covers the whole file, so no single-bit corruption can slip through.
func TestShardRejectsCorruption(t *testing.T) {
	ds := genDataset(t, 8)
	img, err := EncodeShard(0, ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	mutant := make([]byte, len(img))
	for i := range img {
		copy(mutant, img)
		mutant[i] ^= 0x40
		if _, err := FromBytes(mutant); err == nil {
			t.Fatalf("bit flip at byte %d/%d accepted", i, len(img))
		}
	}
}

// TestShardRejectsTruncation requires every proper prefix to be rejected.
func TestShardRejectsTruncation(t *testing.T) {
	ds := genDataset(t, 8)
	img, err := EncodeShard(0, ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(img); n++ {
		if _, err := FromBytes(img[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(img))
		}
	}
}

func TestIngestAndOpenDataset(t *testing.T) {
	ds := genDataset(t, 100)
	dir := t.TempDir()
	man, err := Ingest(dir, ds, 32)
	if err != nil {
		t.Fatal(err)
	}
	if man.NumShards != 4 || man.ShardSamples(3) != 4 || man.ShardSamples(0) != 32 {
		t.Fatalf("shard layout: shards=%d last=%d first=%d", man.NumShards, man.ShardSamples(3), man.ShardSamples(0))
	}
	opened, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := opened.Manifest(); got.NumSamples != 100 || got.NumShards != 4 {
		t.Fatalf("manifest mismatch: %+v", got)
	}
	// Every sample reachable at its arithmetic location, with the right ID.
	for id := 0; id < man.NumSamples; id++ {
		ref := man.ShardOf(id)
		img, err := opened.FetchShard(ref.Shard)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := FromBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sh.Sample(ref.Index)
		if err != nil {
			t.Fatal(err)
		}
		if s.ID != id {
			t.Fatalf("sample %d found at %+v with ID %d", id, ref, s.ID)
		}
	}
	val, err := opened.LoadVal()
	if err != nil {
		t.Fatal(err)
	}
	if len(val) != len(ds.Val) {
		t.Fatalf("val split: %d samples, want %d", len(val), len(ds.Val))
	}
	proxy, err := opened.Proxy()
	if err != nil {
		t.Fatal(err)
	}
	if len(proxy.Train) != 0 || len(proxy.Val) != len(ds.Val) || proxy.FeatureDim != ds.FeatureDim {
		t.Fatalf("proxy shape: train=%d val=%d dim=%d", len(proxy.Train), len(proxy.Val), proxy.FeatureDim)
	}
}

func TestIngestRejectsBadInput(t *testing.T) {
	ds := genDataset(t, 16)
	if _, err := Ingest(t.TempDir(), ds, 0); err == nil {
		t.Fatal("samplesPerShard=0 accepted")
	}
	bad := *ds
	bad.Train = append([]data.Sample(nil), ds.Train...)
	bad.Train[3].ID = 999
	if _, err := Ingest(t.TempDir(), &bad, 8); err == nil {
		t.Fatal("non-enumerating IDs accepted")
	}
}

func TestOpenDatasetRejectsBadManifest(t *testing.T) {
	if _, err := OpenDataset(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
	ds := genDataset(t, 16)
	dir := t.TempDir()
	if _, err := Ingest(dir, ds, 8); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"format_version":1,"num_shards":-1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDataset(dir); err == nil {
		t.Fatal("inconsistent manifest accepted")
	}
}
