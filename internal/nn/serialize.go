package nn

import (
	"encoding/binary"
	"fmt"
	"io"

	"plshuffle/internal/f32le"
)

// Stateful is implemented by layers that carry non-parameter state which a
// checkpoint must include (batch-norm running statistics).
type Stateful interface {
	State() []Param
}

// State exposes the running statistics so checkpoints capture them; the
// gradient slots are nil (running stats receive no gradients).
func (l *BatchNorm) State() []Param {
	return []Param{
		{Name: "bn.run_mean", W: l.RunMean},
		{Name: "bn.run_var", W: l.RunVar},
	}
}

// weightsMagic identifies the checkpoint format ("PLSW" + version 1).
var weightsMagic = [5]byte{'P', 'L', 'S', 'W', 1}

// checkpointTensors lists every tensor a checkpoint stores: all learnable
// parameters plus all layer state, in layer order.
func checkpointTensors(model *Sequential) []Param {
	var out []Param
	for _, l := range model.Layers {
		out = append(out, l.Params()...)
		if s, ok := l.(Stateful); ok {
			out = append(out, s.State()...)
		}
	}
	return out
}

// SaveWeights writes the model's weights and layer state (including
// batch-norm running statistics) in a stable little-endian binary format.
func SaveWeights(w io.Writer, model *Sequential) error {
	if _, err := w.Write(weightsMagic[:]); err != nil {
		return fmt.Errorf("nn: SaveWeights: %w", err)
	}
	tensors := checkpointTensors(model)
	if err := binary.Write(w, binary.LittleEndian, uint32(len(tensors))); err != nil {
		return fmt.Errorf("nn: SaveWeights: %w", err)
	}
	for _, p := range tensors {
		name := []byte(p.Name)
		if err := binary.Write(w, binary.LittleEndian, uint32(len(name))); err != nil {
			return fmt.Errorf("nn: SaveWeights: %w", err)
		}
		if _, err := w.Write(name); err != nil {
			return fmt.Errorf("nn: SaveWeights: %w", err)
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(p.W))); err != nil {
			return fmt.Errorf("nn: SaveWeights: %w", err)
		}
		if _, err := w.Write(f32le.AppendFloat32s(nil, p.W)); err != nil {
			return fmt.Errorf("nn: SaveWeights: %w", err)
		}
	}
	return nil
}

// LoadWeights restores a checkpoint written by SaveWeights into the model.
// The model must have the same architecture: tensor count, names, and
// lengths are all verified before anything is modified would be ideal, but
// streaming requires incremental checks — on mismatch an error is returned
// and the model may be partially updated; rebuild it before retrying.
func LoadWeights(r io.Reader, model *Sequential) error {
	var magic [5]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("nn: LoadWeights: reading header: %w", err)
	}
	if magic != weightsMagic {
		return fmt.Errorf("nn: LoadWeights: bad magic %q (not a plshuffle checkpoint or wrong version)", magic)
	}
	tensors := checkpointTensors(model)
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: LoadWeights: %w", err)
	}
	if int(count) != len(tensors) {
		return fmt.Errorf("nn: LoadWeights: checkpoint has %d tensors, model has %d", count, len(tensors))
	}
	for _, p := range tensors {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return fmt.Errorf("nn: LoadWeights: %w", err)
		}
		if nameLen > 1024 {
			return fmt.Errorf("nn: LoadWeights: implausible name length %d (corrupt checkpoint)", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return fmt.Errorf("nn: LoadWeights: %w", err)
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: LoadWeights: tensor name %q does not match model's %q (architecture mismatch)", name, p.Name)
		}
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return fmt.Errorf("nn: LoadWeights: %w", err)
		}
		if int(n) != len(p.W) {
			return fmt.Errorf("nn: LoadWeights: tensor %q has %d values, model expects %d", p.Name, n, len(p.W))
		}
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("nn: LoadWeights: reading %q: %w", p.Name, err)
		}
		f32le.DecodeFloat32s(p.W, buf)
	}
	return nil
}
