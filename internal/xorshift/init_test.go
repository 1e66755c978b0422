package xorshift

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegenerateMatchesFill(t *testing.T) {
	// The core DropBack contract: regenerating element i later must be
	// bit-identical to the value Fill wrote at initialization time.
	kinds := []Init{
		{Kind: InitScaledNormal, Seed: 11, Scale: 0.05},
		{Kind: InitConstant, Seed: 11, Scale: 1.0},
		{Kind: InitUniform, Seed: 11, Scale: 0.1},
		{Kind: InitZero, Seed: 11},
	}
	for _, in := range kinds {
		buf := make([]float32, 1000)
		in.Fill(buf)
		for i, want := range buf {
			if got := in.Regenerate(i); got != want {
				t.Fatalf("kind %d: Regenerate(%d) = %v, Fill wrote %v", in.Kind, i, got, want)
			}
		}
	}
}

func TestRegenerateOrderIndependent(t *testing.T) {
	in := Init{Kind: InitScaledNormal, Seed: 42, Scale: 1}
	forward := make([]float32, 512)
	for i := range forward {
		forward[i] = in.Regenerate(i)
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := in.Regenerate(i); got != forward[i] {
			t.Fatalf("reverse-order Regenerate(%d) = %v, want %v", i, got, forward[i])
		}
	}
}

func TestConstantInitKinds(t *testing.T) {
	c := Init{Kind: InitConstant, Scale: 0.25}
	z := Init{Kind: InitZero}
	for i := 0; i < 100; i++ {
		if c.Regenerate(i) != 0.25 {
			t.Fatalf("InitConstant must regenerate 0.25 at every index")
		}
		if z.Regenerate(i) != 0 {
			t.Fatalf("InitZero must regenerate 0 at every index")
		}
	}
}

func TestScaledNormalStatistics(t *testing.T) {
	const scale = 0.07
	in := Init{Kind: InitScaledNormal, Seed: 9, Scale: scale}
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := float64(in.Regenerate(i))
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.002 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(std-scale)/scale > 0.05 {
		t.Errorf("std = %v, want ~%v", std, scale)
	}
}

func TestUniformInitRange(t *testing.T) {
	in := Init{Kind: InitUniform, Seed: 3, Scale: 0.5}
	for i := 0; i < 10000; i++ {
		v := in.Regenerate(i)
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("uniform init out of range: %v", v)
		}
	}
}

func TestLeCunScale(t *testing.T) {
	if got := LeCunScale(100); math.Abs(float64(got)-0.1) > 1e-6 {
		t.Errorf("LeCunScale(100) = %v, want 0.1", got)
	}
	if got := LeCunScale(0); got != 1 {
		t.Errorf("LeCunScale(0) = %v, want fallback 1", got)
	}
	if got := LeCunScale(-5); got != 1 {
		t.Errorf("LeCunScale(-5) = %v, want fallback 1", got)
	}
}

func TestHeScale(t *testing.T) {
	want := math.Sqrt(2.0 / 50)
	if got := HeScale(50); math.Abs(float64(got)-want) > 1e-6 {
		t.Errorf("HeScale(50) = %v, want %v", got, want)
	}
	if got := HeScale(0); got != 1 {
		t.Errorf("HeScale(0) = %v, want fallback 1", got)
	}
}

func TestTensorSeedDistinct(t *testing.T) {
	f := func(model uint64, a, b uint64) bool {
		if a == b {
			return true
		}
		return TensorSeed(model, a) != TensorSeed(model, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTensorSeedsGiveIndependentStreams(t *testing.T) {
	s1 := TensorSeed(7, 0)
	s2 := TensorSeed(7, 1)
	a := Init{Kind: InitScaledNormal, Seed: s1, Scale: 1}
	b := Init{Kind: InitScaledNormal, Seed: s2, Scale: 1}
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Regenerate(i) == b.Regenerate(i) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("tensor streams alias: %d/%d identical values", same, n)
	}
}

func TestRegeneratePanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown InitKind")
		}
	}()
	Init{Kind: InitKind(250)}.Regenerate(0)
}

// TestFillRangeMatchesRegenerate pins FillRange to per-element Regenerate
// bit for bit for every InitKind, across empty ranges, ranges starting at
// zero, and large start offsets where the index no longer fits 32 bits.
func TestFillRangeMatchesRegenerate(t *testing.T) {
	kinds := []Init{
		{Kind: InitScaledNormal, Seed: 11, Scale: 0.05},
		{Kind: InitConstant, Seed: 11, Scale: 0.25},
		{Kind: InitUniform, Seed: 11, Scale: 0.1},
		{Kind: InitZero, Seed: 11},
	}
	starts := []int{0, 1, 783, 1 << 20, 1<<32 + 7, 1<<40 - 3}
	lengths := []int{0, 1, 5, 257}
	for _, in := range kinds {
		for _, start := range starts {
			for _, n := range lengths {
				dst := make([]float32, n)
				for i := range dst {
					dst[i] = float32(math.NaN()) // every slot must be overwritten
				}
				in.FillRange(dst, start)
				for i, got := range dst {
					want := in.Regenerate(start + i)
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("kind %d start %d: FillRange[%d] = %x, Regenerate = %x",
							in.Kind, start, i, math.Float32bits(got), math.Float32bits(want))
					}
				}
			}
		}
	}
}

// TestFillRangeProperty checks the same equality over random seeds,
// offsets and lengths.
func TestFillRangeProperty(t *testing.T) {
	f := func(seed uint64, start uint32, n uint8, kind uint8) bool {
		in := Init{Kind: InitKind(kind % 4), Seed: seed, Scale: 0.3}
		dst := make([]float32, n)
		in.FillRange(dst, int(start))
		for i, got := range dst {
			if math.Float32bits(got) != math.Float32bits(in.Regenerate(int(start)+i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
