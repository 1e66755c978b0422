package core

import (
	"math"
	"testing"

	"dropback/internal/nn"
	"dropback/internal/xorshift"
)

// randomTrackedTensor builds a rows×rowLen CSR tensor whose tracked set is a
// seeded random pattern of the given density, with values that differ from
// the regenerated init. Row 0 is left empty and, when rows > 1, the last row
// is fully tracked, so both merge-walk extremes are always present.
func randomTrackedTensor(seed uint64, rows, rowLen int, density float32) *TrackedTensor {
	p := nn.NewParam("fill/w", seed, xorshift.InitScaledNormal, 0.1, rows, rowLen)
	t := &TrackedTensor{P: p, Rows: rows, RowLen: rowLen, RowPtr: make([]int32, rows+1)}
	for e := 0; e < rows*rowLen; e++ {
		r := e / rowLen
		tracked := xorshift.IndexedUniform(seed, uint64(e)) < density
		if r == 0 {
			tracked = false
		} else if rows > 1 && r == rows-1 {
			tracked = true
		}
		if tracked {
			t.Idx = append(t.Idx, int32(e))
			t.Val = append(t.Val, 10+float32(e))
		}
	}
	t.rebuildRowPtr()
	return t
}

// checkWindow asserts FillRowRange(r, lo, hi) equals FillRow's [lo, hi).
func checkWindow(t *testing.T, tt *TrackedTensor, full []float32, r, lo, hi int) {
	t.Helper()
	dst := make([]float32, hi-lo)
	for i := range dst {
		dst[i] = float32(math.NaN())
	}
	tt.FillRowRange(dst, r, lo, hi)
	for i, got := range dst {
		if math.Float32bits(got) != math.Float32bits(full[lo+i]) {
			t.Fatalf("row %d window [%d,%d): [%d] = %x, FillRow = %x",
				r, lo, hi, lo+i, math.Float32bits(got), math.Float32bits(full[lo+i]))
		}
	}
}

// TestFillRowRangeMatchesFillRow is the windowed merge walk's contract: for
// random CSR rows and random windows — plus every window that starts or
// ends on a tracked entry — FillRowRange equals the matching slice of
// FillRow bit for bit.
func TestFillRowRangeMatchesFillRow(t *testing.T) {
	for _, tc := range []struct {
		seed         uint64
		rows, rowLen int
		density      float32
	}{
		{1, 1, 1, 0.5},
		{2, 4, 17, 0.1},
		{3, 6, 64, 0.5},
		{4, 5, 300, 0.02},
	} {
		tt := randomTrackedTensor(tc.seed, tc.rows, tc.rowLen, tc.density)
		full := make([]float32, tc.rowLen)
		for r := 0; r < tc.rows; r++ {
			tt.FillRow(full, r)
			for i := 0; i < 40; i++ {
				a := int(xorshift.IndexedUint32(tc.seed+100, uint64(r*40+i)) % uint32(tc.rowLen+1))
				b := int(xorshift.IndexedUint32(tc.seed+200, uint64(r*40+i)) % uint32(tc.rowLen+1))
				if a > b {
					a, b = b, a
				}
				checkWindow(t, tt, full, r, a, b)
			}
			checkWindow(t, tt, full, r, 0, tc.rowLen)
			checkWindow(t, tt, full, r, tc.rowLen, tc.rowLen)
			for k := tt.RowPtr[r]; k < tt.RowPtr[r+1]; k++ {
				c := int(tt.Idx[k]) - r*tc.rowLen
				checkWindow(t, tt, full, r, c, tc.rowLen) // starts on an entry
				checkWindow(t, tt, full, r, 0, c)         // ends just before one
				checkWindow(t, tt, full, r, 0, c+1)       // ends on one
				checkWindow(t, tt, full, r, c, c+1)       // exactly one entry
			}
		}
	}
}
