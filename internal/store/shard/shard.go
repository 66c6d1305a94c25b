package shard

import (
	"encoding/binary"
	"fmt"

	"plshuffle/internal/data"
	"plshuffle/internal/f32le"
)

// Shard is an open, verified, read-only shard. The sample data stays in
// the page cache via mmap (on unix; an in-memory copy elsewhere), so
// steady-state reads allocate nothing and copy at most once — into the
// caller's batch tensor. A Shard is safe for concurrent readers.
type Shard struct {
	p   parsed
	buf []byte // the full mapping (or heap copy); nil after Close
	m   mapping
}

// Open maps the shard file at path and verifies its checksum and index.
func Open(path string) (*Shard, error) {
	buf, m, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: Open %s: %w", path, err)
	}
	p, err := parse(buf)
	if err != nil {
		m.close()
		return nil, fmt.Errorf("shard: Open %s: %w", path, err)
	}
	return &Shard{p: p, buf: buf, m: m}, nil
}

// FromBytes opens a shard from an in-memory image (no file backing). The
// image is retained; the caller must not mutate it afterwards.
func FromBytes(buf []byte) (*Shard, error) {
	p, err := parse(buf)
	if err != nil {
		return nil, err
	}
	return &Shard{p: p, buf: buf}, nil
}

// Close unmaps the shard.
func (sh *Shard) Close() error {
	sh.buf = nil
	sh.p = parsed{}
	return sh.m.close()
}

// ID returns the shard's ID from its header.
func (sh *Shard) ID() int { return sh.p.shardID }

// Count returns the number of samples in the shard.
func (sh *Shard) Count() int { return sh.p.count }

// Size returns the shard file's byte size.
func (sh *Shard) Size() int64 {
	return int64(headerLen + len(sh.p.data) + len(sh.p.index) + footerLen)
}

// header decodes sample i's fixed header fields and returns its encoding.
func (sh *Shard) header(i int) (enc []byte, id, label int, sim int64, feat int, err error) {
	if i < 0 || i >= sh.p.count {
		return nil, 0, 0, 0, 0, fmt.Errorf("shard %d: sample index %d out of [0,%d)", sh.p.shardID, i, sh.p.count)
	}
	_, off, n := sh.p.entry(i)
	enc = sh.p.data[off : off+n]
	id = int(int64(binary.LittleEndian.Uint64(enc)))
	label = int(int64(binary.LittleEndian.Uint64(enc[8:])))
	sim = int64(binary.LittleEndian.Uint64(enc[16:]))
	feat = int(binary.LittleEndian.Uint32(enc[24:]))
	return enc, id, label, sim, feat, nil
}

// Sample decodes sample i into a data.Sample with its own copy of the
// features, so it stays valid after Close.
func (sh *Shard) Sample(i int) (data.Sample, error) {
	enc, id, label, sim, feat, err := sh.header(i)
	if err != nil {
		return data.Sample{}, err
	}
	s := data.Sample{ID: id, Label: label, Bytes: sim}
	if feat > 0 {
		s.Features = make([]float32, feat)
		f32le.DecodeFloat32s(s.Features, enc[sampleHeaderLen:])
	}
	return s, nil
}

// ReadInto copies sample i's features into feat (which must hold at least
// the sample's feature count) and returns its metadata. It is the
// batch-assembly hot path: zero allocations, one copy into the caller's
// tensor row.
func (sh *Shard) ReadInto(i int, feat []float32) (id, label int, sim int64, n int, err error) {
	enc, id, label, sim, n, err := sh.header(i)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if n > len(feat) {
		return 0, 0, 0, 0, fmt.Errorf("shard %d: sample %d has %d features, buffer holds %d", sh.p.shardID, i, n, len(feat))
	}
	f32le.DecodeFloat32s(feat[:n], enc[sampleHeaderLen:])
	return id, label, sim, n, nil
}

// Samples decodes every sample in the shard — the ingest round-trip check
// and the validation-set loader use it; the training hot path uses
// ReadInto instead.
func (sh *Shard) Samples() ([]data.Sample, error) {
	out := make([]data.Sample, sh.p.count)
	for i := range out {
		s, err := sh.Sample(i)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
