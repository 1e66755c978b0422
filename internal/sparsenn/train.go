// Sparse-native training: the mirror tree built by NewTrainingMirror runs
// forward AND backward passes straight off the engine's CSR weight state,
// regenerating untracked weights inside the kernel loops per minibatch. The
// model's dense weight tensors are never read during a training step — they
// are refreshed only at epoch boundaries via TrackedTrainer.Densify for
// evaluation and checkpointing.
//
// Correctness contract (the training half of the package contract): every
// activation, gradient, and parameter update is bit-identical to the dense
// trainer's. The forward kernels reuse the inference bit-identity argument
// (ops.go); the backward kernels replay the dense gradient kernels'
// per-element operation sequences — same accumulation order, same cleared
// accumulators, same zero skips on the same values — with weight rows
// materialized through TrackedTensor.FillRow instead of read from DRAM:
//
//   - Linear dX (dense tensor.MatMulInto(dy, W)): each element dx[i][j]
//     accumulates dy[i][p]·W[p][j] in ascending p from a cleared buffer,
//     skipping dy[i][p]==0. Hoisting p outward so each weight row is
//     materialized once reorders whole elements, never the operations
//     within one.
//   - Linear dW pre-freeze needs no weights at all, so the mirror calls the
//     exact dense kernels (MatMulTransAInto + AddInPlace). Post-freeze each
//     tracked element (r,c) folds dy[p][r]·x[p][c] in ascending p from zero,
//     skipping dy[p][r]==0 — the dense MatMulTransA element replayed alone.
//   - Conv dW is a per-sample MatMulTransBSlice (independent ascending dot
//     per element, no skip) reduced in ascending sample order; the tracked
//     replay folds those per-sample dots in the same order. dB always runs
//     the dense float64-sum code (biases stay dense).
//   - Conv dX (dense MatMulTransASlice) accumulates W[f][c]·dy[f][s] in
//     ascending f from a cleared buffer, skipping W[f][c]==0; the replay
//     hoists f outward and skips on the regenerated row's identical bits.
//
// Every loop fans out across GOMAXPROCS through tensor.ParallelChunks once
// its work (multiply-accumulates plus core.RegenWork per regenerated
// weight) crosses the dense kernels' threshold. The partitions are
// output-disjoint — every output element is written by exactly one
// goroutine, so each keeps its own accumulation order and the result is
// bit-identical at any GOMAXPROCS:
//
//   - forward: by output row (Linear output column j, Conv filter f);
//   - Linear dX and Conv dcols: by input-column range, each chunk
//     regenerating only its window of every weight row
//     (TrackedTensor.FillRowRange) into a private bounce row;
//   - frozen tracked dW: by tracked entry (Linear: the contiguous entry
//     ranges of whole weight rows);
//   - im2col, col2im and the pre-freeze Conv dW partials: by sample; the
//     partials' reduction by dW element.
//
// Biases stay serial: they are small, and their dense code is replayed
// verbatim.
package sparsenn

import (
	"fmt"

	"dropback/internal/core"
	"dropback/internal/nn"
	"dropback/internal/tensor"
)

// NewTrainingMirror builds a training-mode mirror of m.Net over the tracked
// engine: Linear and Conv2D layers are virtualized into CSR form and
// replaced by sparse train kernels, containers are rebuilt around them, and
// every other layer (activations, pooling, batch norm, dropout — anything
// whose parameters the engine keeps dense) is shared with the original tree
// so its internal state (BN statistics, dropout RNG) advances exactly as in
// a dense run. The mirror and m.Net must not run concurrently; the trainer
// uses the mirror for steps and the densified m.Net for evaluation.
func NewTrainingMirror(m *nn.Model, eng *core.TrackedTrainer) (nn.Layer, error) {
	return mirrorLayer(m.Net, eng)
}

func mirrorLayer(l nn.Layer, eng *core.TrackedTrainer) (nn.Layer, error) {
	switch t := l.(type) {
	case *nn.Sequential:
		children := make([]nn.Layer, 0, len(t.Layers()))
		for _, c := range t.Layers() {
			mc, err := mirrorLayer(c, eng)
			if err != nil {
				return nil, err
			}
			children = append(children, mc)
		}
		return nn.NewSequential(t.Name(), children...), nil
	case *nn.Residual:
		body, err := mirrorLayer(t.Body, eng)
		if err != nil {
			return nil, err
		}
		shortcut, err := mirrorLayer(t.Shortcut, eng)
		if err != nil {
			return nil, err
		}
		return nn.NewResidual(t.Name(), body, shortcut), nil
	case *nn.DenseBlock:
		units := make([]nn.Layer, 0, len(t.Units))
		for _, u := range t.Units {
			mu, err := mirrorLayer(u, eng)
			if err != nil {
				return nil, err
			}
			units = append(units, mu)
		}
		return nn.NewDenseBlock(t.Name(), t.InC, t.Growth, units...), nil
	case *nn.Linear:
		ct, err := eng.Virtualize(t.W, t.Out)
		if err != nil {
			return nil, err
		}
		return &trainLinear{l: t, t: ct, eng: eng, ws: tensor.NewWorkspace()}, nil
	case *nn.Conv2D:
		ct, err := eng.Virtualize(t.W, t.OutC)
		if err != nil {
			return nil, err
		}
		return &trainConv{l: t, t: ct, eng: eng, ws: tensor.NewWorkspace()}, nil
	default:
		// Parameter-free layers and small-parameter layers (BatchNorm,
		// PReLU, variational wrappers) stay dense: the engine updates their
		// parameters in place, and sharing the instance keeps stateful
		// layers (BN statistics, dropout RNG) in lockstep with a dense run.
		return l, nil
	}
}

// TrainStep is the sparse counterpart of nn.Model.Step: one forward/backward
// pass through the mirror tree, gradients left in the parameter Grad buffers
// (dense for small tensors and pre-freeze big tensors, TGrad for frozen big
// tensors). Loss and accuracy come from the model's own loss head so the
// numbers are bit-identical to the dense step.
func TrainStep(m *nn.Model, mirror nn.Layer, x *tensor.Tensor, labels []int) (loss, acc float64) {
	m.Set.ZeroGrads()
	logits := mirror.Forward(x, true)
	loss, acc = m.Loss.Forward(logits, labels)
	mirror.Backward(m.Loss.Backward())
	return loss, acc
}

// trainLinear is the training-mode sparse Linear: y = x Wᵀ + b with W in
// CSR + regeneration form, bit-identical forward and backward.
type trainLinear struct {
	l   *nn.Linear
	t   *core.TrackedTensor
	eng *core.TrackedTrainer
	ws  *tensor.Workspace
	x   *tensor.Tensor // cached forward input
}

func (s *trainLinear) Name() string { return s.l.Name() }

func (s *trainLinear) Params() []*nn.Param { return s.l.Params() }

func (s *trainLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l := s.l
	if len(x.Shape) != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("sparsenn: linear %q expected (N,%d) input, got %v", l.Name(), l.In, x.Shape))
	}
	s.x = x
	n := x.Shape[0]
	y := s.ws.GetRaw("y", n, l.Out)
	// Output columns j are partitioned across chunks: each chunk streams its
	// own weight rows through a private bounce row. The Linear loops call
	// the worker directly when the work stays on one chunk, so the layers
	// below the threshold allocate no closure per step.
	work := n*l.Out*l.In + core.RegenWork*l.Out*l.In
	chunks := tensor.ParallelChunkCount(l.Out, work)
	wrows := s.ws.GetRaw("wrow", chunks, l.In).Data
	if chunks == 1 {
		s.forwardRows(y, wrows, 0, l.Out)
	} else {
		tensor.ParallelChunks(l.Out, work, func(c, lo, hi int) {
			s.forwardRows(y, wrows[c*l.In:(c+1)*l.In], lo, hi)
		})
	}
	if l.B != nil {
		tensor.AddRowVector(y, l.B.Value)
	}
	return y
}

// forwardRows computes output columns [lo, hi) of y for the whole batch.
// Dense MatMulTransB computes each y[i][j] as an independent ascending dot
// with no zero skip; materializing W row j once per output column preserves
// every element's operation sequence (see linearOp). Four samples share
// each weight load, each in its own accumulator, so the four dots run as
// independent add chains while each still sums in ascending p.
func (s *trainLinear) forwardRows(y *tensor.Tensor, wrow []float32, lo, hi int) {
	l, x := s.l, s.x
	n := x.Shape[0]
	for j := lo; j < hi; j++ {
		s.t.FillRow(wrow, j)
		i := 0
		for ; i+4 <= n; i += 4 {
			x0 := x.Data[i*l.In : (i+1)*l.In][:len(wrow)]
			x1 := x.Data[(i+1)*l.In : (i+2)*l.In][:len(wrow)]
			x2 := x.Data[(i+2)*l.In : (i+3)*l.In][:len(wrow)]
			x3 := x.Data[(i+3)*l.In : (i+4)*l.In][:len(wrow)]
			var a0, a1, a2, a3 float32
			for p, wv := range wrow {
				a0 += x0[p] * wv
				a1 += x1[p] * wv
				a2 += x2[p] * wv
				a3 += x3[p] * wv
			}
			y.Data[i*l.Out+j] = a0
			y.Data[(i+1)*l.Out+j] = a1
			y.Data[(i+2)*l.Out+j] = a2
			y.Data[(i+3)*l.Out+j] = a3
		}
		for ; i < n; i++ {
			xrow := x.Data[i*l.In : (i+1)*l.In]
			var acc float32
			for p, xv := range xrow {
				acc += xv * wrow[p]
			}
			y.Data[i*l.Out+j] = acc
		}
	}
}

func (s *trainLinear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l := s.l
	if s.x == nil {
		panic(fmt.Sprintf("sparsenn: linear %q Backward before Forward", l.Name()))
	}
	n := dy.Shape[0]
	if s.eng.Frozen() {
		// Tracked-set-only dW, partitioned by weight row: each chunk owns
		// the contiguous tracked-entry range of its rows.
		work := len(s.t.Idx) * n
		if tensor.ParallelChunkCount(l.Out, work) == 1 {
			s.trackedGrad(dy, 0, l.Out)
		} else {
			tensor.ParallelChunks(l.Out, work, func(_, lo, hi int) { s.trackedGrad(dy, lo, hi) })
		}
	} else {
		// Pre-freeze every weight is a candidate: dense gradients via the
		// exact dense kernels (dW = dyᵀ x needs no weight values).
		dW := s.ws.GetRaw("dw", l.Out, l.In)
		tensor.MatMulTransAInto(dW, dy, s.x)
		tensor.AddInPlace(l.W.Grad, dW)
	}
	if l.B != nil {
		for i := 0; i < n; i++ {
			row := dy.Data[i*l.Out : (i+1)*l.Out]
			for j, v := range row {
				l.B.Grad.Data[j] += v
			}
		}
	}
	// dx = dy @ W with regenerated rows, input columns partitioned across
	// chunks: each chunk regenerates only its slice of every weight row.
	dx := s.ws.GetRaw("dx", n, l.In)
	work := n*l.Out*l.In + core.RegenWork*l.Out*l.In
	chunks := tensor.ParallelChunkCount(l.In, work)
	wrows := s.ws.GetRaw("wrow", chunks, l.In).Data
	if chunks == 1 {
		s.inputGradCols(dy, dx, wrows, 0, l.In)
	} else {
		tensor.ParallelChunks(l.In, work, func(c, lo, hi int) {
			s.inputGradCols(dy, dx, wrows[c*l.In:(c+1)*l.In], lo, hi)
		})
	}
	return dx
}

// trackedGrad computes the tracked gradients of weight rows [lo, hi): each
// tracked (r,c) replays the dense MatMulTransA element — an ascending-sample
// fold from zero, skipping dy[p][r]==0 — exactly the value AddInPlace would
// land in W.Grad. The sample loop is hoisted outward so each x row and each
// zero test on dy[p][r] serve a whole row of tracked entries; that reorders
// whole elements, never the operations within one.
func (s *trainLinear) trackedGrad(dy *tensor.Tensor, lo, hi int) {
	l, t := s.l, s.t
	n := dy.Shape[0]
	clear(t.TGrad[t.RowPtr[lo]:t.RowPtr[hi]])
	for p := 0; p < n; p++ {
		xrow := s.x.Data[p*l.In : (p+1)*l.In]
		for r := lo; r < hi; r++ {
			av := dy.Data[p*l.Out+r]
			if av == 0 {
				continue
			}
			base := int32(r * l.In)
			idx := t.Idx[t.RowPtr[r]:t.RowPtr[r+1]]
			grad := t.TGrad[t.RowPtr[r]:t.RowPtr[r+1]][:len(idx)]
			for m, fi := range idx {
				grad[m] += av * xrow[fi-base]
			}
		}
	}
}

// inputGradCols computes columns [lo, hi) of dx = dy @ W: clear, then
// ascending-p accumulation skipping dy==0 — the dense MatMulInto sequence
// with the weight-row loop hoisted outward and each row regenerated over
// the chunk's window only.
func (s *trainLinear) inputGradCols(dy, dx *tensor.Tensor, wrow []float32, lo, hi int) {
	l := s.l
	n := dy.Shape[0]
	wrow = wrow[:hi-lo]
	for i := 0; i < n; i++ {
		clear(dx.Data[i*l.In+lo : i*l.In+hi])
	}
	for p := 0; p < l.Out; p++ {
		s.t.FillRowRange(wrow, p, lo, hi)
		for i := 0; i < n; i++ {
			av := dy.Data[i*l.Out+p]
			if av == 0 {
				continue
			}
			row := dx.Data[i*l.In+lo : i*l.In+hi][:len(wrow)]
			for j, wv := range wrow {
				row[j] += av * wv
			}
		}
	}
}

// trainConv is the training-mode sparse Conv2D: im2col lowering with the
// filter matrix in CSR + regeneration form, bit-identical forward and
// backward.
type trainConv struct {
	l   *nn.Conv2D
	t   *core.TrackedTensor
	eng *core.TrackedTrainer
	ws  *tensor.Workspace

	cols       *tensor.Tensor // (N, C·KH·KW, OH·OW) lowering slab
	batch      int
	inShape    []int
	outH, outW int
}

func (s *trainConv) Name() string { return s.l.Name() }

func (s *trainConv) Params() []*nn.Param { return s.l.Params() }

// geom returns the layer's derived dimensions for the cached input shape.
func (s *trainConv) geom() convGeom {
	l := s.l
	h, w := s.inShape[2], s.inShape[3]
	colRows := l.InC * l.KH * l.KW
	spatial := s.outH * s.outW
	return convGeom{h: h, w: w, colRows: colRows, spatial: spatial,
		imgSize: l.InC * h * w, perSample: l.OutC * spatial, colSize: colRows * spatial}
}

func (s *trainConv) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l := s.l
	if len(x.Shape) != 4 || x.Shape[1] != l.InC {
		panic(fmt.Sprintf("sparsenn: conv %q expected (N,%d,H,W) input, got %v", l.Name(), l.InC, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	s.inShape = append(s.inShape[:0], x.Shape...)
	s.outH = tensor.ConvOutSize(h, l.KH, l.Stride, l.Pad)
	s.outW = tensor.ConvOutSize(w, l.KW, l.Stride, l.Pad)
	s.batch = n
	g := s.geom()

	s.cols = s.ws.GetRaw("cols", n, g.colRows, g.spatial)
	y := s.ws.GetRaw("y", n, l.OutC, s.outH, s.outW)
	// Lowering writes one disjoint slab region per sample.
	tensor.ParallelChunks(n, n*g.colSize, func(_, lo, hi int) { s.lowerSamples(x, g, lo, hi) })
	// Filters f are partitioned across chunks: each chunk owns the output
	// planes of its filters in every sample.
	work := n*g.perSample*g.colRows + core.RegenWork*l.OutC*g.colRows
	wrows := s.ws.GetRaw("wrow", tensor.ParallelChunkCount(l.OutC, work), g.colRows).Data
	tensor.ParallelChunks(l.OutC, work, func(c, lo, hi int) {
		s.forwardFilters(y, wrows[c*g.colRows:(c+1)*g.colRows], g, lo, hi)
	})
	return y
}

// lowerSamples im2col-lowers samples [lo, hi) into the cols slab.
func (s *trainConv) lowerSamples(x *tensor.Tensor, g convGeom, lo, hi int) {
	l := s.l
	for i := lo; i < hi; i++ {
		tensor.Im2ColSlice(s.cols.Data[i*g.colSize:(i+1)*g.colSize], x.Data[i*g.imgSize:(i+1)*g.imgSize],
			l.InC, g.h, g.w, l.KH, l.KW, l.Stride, l.Pad)
	}
}

// forwardFilters computes the output planes of filters [lo, hi) for every
// sample. Each filter row is materialized once and multiplied against every
// lowered sample by MatMulRowSlice — the dense MatMulSlice row's exact
// operation sequence (same tiling, clear, order, and zero skip) — then the
// filter's bias is added to each of its planes, as the dense per-plane adds
// do.
func (s *trainConv) forwardFilters(y *tensor.Tensor, wrow []float32, g convGeom, lo, hi int) {
	l := s.l
	for f := lo; f < hi; f++ {
		s.t.FillRow(wrow, f)
		for i := 0; i < s.batch; i++ {
			plane := y.Data[i*g.perSample+f*g.spatial : i*g.perSample+(f+1)*g.spatial]
			tensor.MatMulRowSlice(plane, wrow, s.cols.Data[i*g.colSize:(i+1)*g.colSize], g.colRows, g.spatial)
		}
		if l.B == nil {
			continue
		}
		b := l.B.Value.Data[f]
		for i := 0; i < s.batch; i++ {
			plane := y.Data[i*g.perSample+f*g.spatial : i*g.perSample+(f+1)*g.spatial]
			for j := range plane {
				plane[j] += b
			}
		}
	}
}

func (s *trainConv) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l := s.l
	if s.cols == nil || s.batch == 0 {
		panic(fmt.Sprintf("sparsenn: conv %q Backward before Forward", l.Name()))
	}
	n := s.batch
	g := s.geom()
	wSize := l.OutC * g.colRows

	if s.eng.Frozen() {
		// Tracked-set-only dW, partitioned over tracked entries.
		nnz := len(s.t.Idx)
		tensor.ParallelChunks(nnz, nnz*n*g.spatial, func(_, lo, hi int) { s.trackedGrad(dy, g, lo, hi) })
	} else {
		// Pre-freeze dense dW: the exact per-sample kernel (samples own
		// disjoint partials) plus the dense ascending-sample reduction
		// (elements own disjoint sums); weights are not read.
		dwPart := s.ws.GetRaw("dwpart", n, wSize)
		tensor.ParallelChunks(n, n*g.perSample*g.colRows, func(_, lo, hi int) { s.densePartials(dy, dwPart, g, lo, hi) })
		tensor.ParallelChunks(wSize, n*wSize, func(_, lo, hi int) { s.reducePartials(dwPart, lo, hi) })
	}
	if l.B != nil {
		// Biases stay dense in both modes: per-sample float64 plane sums
		// accumulated in ascending sample order, the dense dB code verbatim.
		for i := 0; i < n; i++ {
			dyI := dy.Data[i*g.perSample : (i+1)*g.perSample]
			for f := 0; f < l.OutC; f++ {
				var sum float64
				row := dyI[f*g.spatial : (f+1)*g.spatial]
				for _, v := range row {
					sum += float64(v)
				}
				l.B.Grad.Data[f] += float32(sum)
			}
		}
	}
	// dX: dcols = Wᵀ dy with regenerated filter rows, filter columns
	// partitioned across chunks, then the dense col2im scatter per sample.
	dx := s.ws.GetRaw("dx", s.inShape...)
	dcols := s.ws.GetRaw("dcols", n, g.colSize)
	work := n*g.perSample*g.colRows + core.RegenWork*l.OutC*g.colRows
	wrows := s.ws.GetRaw("wrow", tensor.ParallelChunkCount(g.colRows, work), g.colRows).Data
	tensor.ParallelChunks(g.colRows, work, func(c, lo, hi int) {
		s.colGradCols(dy, dcols, wrows[c*g.colRows:(c+1)*g.colRows], g, lo, hi)
	})
	tensor.ParallelChunks(n, n*g.colSize, func(_, lo, hi int) { s.scatterSamples(dx, dcols, g, lo, hi) })
	return dx
}

// trackedGrad computes tracked entries [lo, hi) of the frozen dW: each
// tracked (f,c) folds the per-sample independent dots (dense
// MatMulTransBSlice elements) in ascending sample order from zero — the
// value the dense reduction loop would land in W.Grad.
func (s *trainConv) trackedGrad(dy *tensor.Tensor, g convGeom, lo, hi int) {
	t := s.t
	for k := lo; k < hi; k++ {
		fi := int(t.Idx[k])
		f, c := fi/g.colRows, fi%g.colRows
		var acc float32
		for i := 0; i < s.batch; i++ {
			dyRow := dy.Data[i*g.perSample+f*g.spatial : i*g.perSample+(f+1)*g.spatial]
			colRow := s.cols.Data[i*g.colSize+c*g.spatial : i*g.colSize+(c+1)*g.spatial]
			var dot float32
			for j, v := range dyRow {
				dot += v * colRow[j]
			}
			acc += dot
		}
		t.TGrad[k] = acc
	}
}

// densePartials writes the per-sample dense dW partials of samples [lo, hi).
func (s *trainConv) densePartials(dy, dwPart *tensor.Tensor, g convGeom, lo, hi int) {
	l := s.l
	wSize := l.OutC * g.colRows
	for i := lo; i < hi; i++ {
		tensor.MatMulTransBSlice(dwPart.Data[i*wSize:(i+1)*wSize],
			dy.Data[i*g.perSample:(i+1)*g.perSample], s.cols.Data[i*g.colSize:(i+1)*g.colSize],
			l.OutC, g.spatial, g.colRows)
	}
}

// reducePartials folds the per-sample partials into W.Grad elements
// [lo, hi) in ascending sample order.
func (s *trainConv) reducePartials(dwPart *tensor.Tensor, lo, hi int) {
	dW := s.l.W.Grad.Data
	wSize := len(dW)
	for i := 0; i < s.batch; i++ {
		part := dwPart.Data[i*wSize : (i+1)*wSize]
		for j := lo; j < hi; j++ {
			dW[j] += part[j]
		}
	}
}

// colGradCols computes filter columns [lo, hi) of dcols = Wᵀ dy for every
// sample: clear, then ascending-f accumulation skipping W[f][c]==0 — the
// dense MatMulTransASlice sequence with the filter-row loop hoisted outward
// and each row regenerated over the chunk's window only.
func (s *trainConv) colGradCols(dy, dcols *tensor.Tensor, wrow []float32, g convGeom, lo, hi int) {
	wrow = wrow[:hi-lo]
	for i := 0; i < s.batch; i++ {
		clear(dcols.Data[i*g.colSize+lo*g.spatial : i*g.colSize+hi*g.spatial])
	}
	for f := 0; f < s.l.OutC; f++ {
		s.t.FillRowRange(wrow, f, lo, hi)
		for i := 0; i < s.batch; i++ {
			dyRow := dy.Data[i*g.perSample+f*g.spatial : i*g.perSample+(f+1)*g.spatial]
			dcI := dcols.Data[i*g.colSize : (i+1)*g.colSize]
			for c, wv := range wrow {
				if wv == 0 {
					continue
				}
				dcRow := dcI[(lo+c)*g.spatial : (lo+c+1)*g.spatial][:len(dyRow)]
				for j, v := range dyRow {
					dcRow[j] += wv * v
				}
			}
		}
	}
}

// scatterSamples col2im-scatters the dcols of samples [lo, hi) into dx.
func (s *trainConv) scatterSamples(dx, dcols *tensor.Tensor, g convGeom, lo, hi int) {
	l := s.l
	for i := lo; i < hi; i++ {
		tensor.Col2ImSlice(dx.Data[i*g.imgSize:(i+1)*g.imgSize], dcols.Data[i*g.colSize:(i+1)*g.colSize],
			l.InC, g.h, g.w, l.KH, l.KW, l.Stride, l.Pad)
	}
}
