package xorshift

import "math"

// InitKind selects the regeneration rule for a parameter tensor. DropBack
// must be able to regenerate the *initialization-time* value of any weight;
// different layer types initialize differently, so the regenerator records
// which rule produced each tensor.
type InitKind uint8

const (
	// InitScaledNormal draws from N(0, scale) via the indexed xorshift
	// normal. Used for Linear and Conv weights (LeCun 1998 scaling).
	InitScaledNormal InitKind = iota
	// InitConstant regenerates a fixed constant (e.g. BatchNorm gamma = 1,
	// beta = 0, PReLU slope = 0.25). The paper notes constant-initialized
	// layers are pruned "out of the box" because xorshift is not even
	// needed: regeneration is just the constant.
	InitConstant
	// InitUniform draws from U(-scale, scale) via the indexed xorshift
	// uniform; provided for completeness (Glorot-uniform style layers).
	InitUniform
	// InitZero is InitConstant with value 0 (biases).
	InitZero
)

// Init describes how one parameter tensor was initialized, carrying
// everything needed to regenerate any element from its flat index.
type Init struct {
	Kind InitKind
	// Seed is the global model seed combined (by the caller) with a stable
	// per-tensor identifier, so tensors do not alias each other's streams.
	Seed uint64
	// Scale is the standard deviation (InitScaledNormal), the half-range
	// (InitUniform), or the constant value (InitConstant).
	Scale float32
}

// Regenerate recomputes the initialization value of the element at flat
// index i within the tensor. It is pure: same Init and index always yield
// the same value.
func (in Init) Regenerate(i int) float32 {
	switch in.Kind {
	case InitScaledNormal:
		return in.Scale * IndexedNormal(in.Seed, uint64(i))
	case InitConstant:
		return in.Scale
	case InitUniform:
		return in.Scale * (2*IndexedUniform(in.Seed, uint64(i)) - 1)
	case InitZero:
		return 0
	default:
		panic("xorshift: unknown InitKind")
	}
}

// Fill writes the initialization values for indices [0, len(dst)) into dst.
// This is how tensors are initialized in the first place, guaranteeing that
// what Regenerate returns later is exactly what training started from.
func (in Init) Fill(dst []float32) {
	in.FillRange(dst, 0)
}

// FillRange writes the initialization values for the contiguous indices
// [start, start+len(dst)) into dst: dst[i] == Regenerate(start+i) bit for
// bit, with the kind switch taken once per range instead of per element.
// It is the gap filler of every sparse merge walk.
func (in Init) FillRange(dst []float32, start int) {
	switch in.Kind {
	case InitScaledNormal:
		for i := range dst {
			dst[i] = in.Scale * IndexedNormal(in.Seed, uint64(start+i))
		}
	case InitConstant:
		for i := range dst {
			dst[i] = in.Scale
		}
	case InitUniform:
		for i := range dst {
			dst[i] = in.Scale * (2*IndexedUniform(in.Seed, uint64(start+i)) - 1)
		}
	case InitZero:
		clear(dst)
	default:
		panic("xorshift: unknown InitKind")
	}
}

// LeCunScale returns the LeCun (1998) initialization standard deviation
// 1/sqrt(fanIn) used by the paper for weight tensors.
func LeCunScale(fanIn int) float32 {
	if fanIn <= 0 {
		return 1
	}
	return float32(1 / math.Sqrt(float64(fanIn)))
}

// HeScale returns the He initialization standard deviation sqrt(2/fanIn),
// appropriate for ReLU networks (used by the conv architectures).
func HeScale(fanIn int) float32 {
	if fanIn <= 0 {
		return 1
	}
	return float32(math.Sqrt(2 / float64(fanIn)))
}

// TensorSeed derives the per-tensor seed from the global model seed and a
// stable tensor identifier. Mixing prevents stream aliasing between tensors
// that share the same flat indices.
func TensorSeed(modelSeed uint64, tensorID uint64) uint64 {
	return mix64(modelSeed ^ mix64(tensorID+0x5851F42D4C957F2D))
}
