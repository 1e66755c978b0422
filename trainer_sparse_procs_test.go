package dropback

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dropback/internal/core"
	"dropback/internal/models"
	"dropback/internal/nn"
	"dropback/internal/tensor"
)

// sparseWideConvModel is a conv model sized so both conv layers' sparse
// kernels cross the fan-out threshold at batch 16: the first conv's forward
// and dcols loops are 16·(16·256)·27 ≈ 1.8M MACs, the second's
// 16·(8·64)·144 ≈ 1.2M.
func sparseWideConvModel(seed uint64) *Model {
	net := nn.NewSequential("swc",
		nn.NewConv2D("swc/c1", seed, 3, 16, 3, 1, 1),
		nn.NewReLU("swc/r1"),
		nn.NewMaxPool2D("swc/p1", 2, 2),
		nn.NewConv2DNoBias("swc/c2", seed, 16, 8, 3, 1, 1),
		nn.NewReLU("swc/r2"),
		nn.NewFlatten("swc/fl"),
		nn.NewLinear("swc/fc", seed, 8*8*8, 4),
	)
	return nn.NewModel(net, seed)
}

// sparseWideMLP has a hidden Linear (256→128) whose backward input gradient
// is consumed and fans out at batch 32: 32·128·256 MACs plus the regenerated
// weights ≈ 1.6M work units. At a 30000 budget its frozen tracked dW
// (tracked entries × batch) crosses the threshold too.
func sparseWideMLP(seed uint64) *Model {
	return models.NewMLP(models.MLPConfig{
		Name: "swm", In: 32, Hidden: []int{256, 128}, Classes: 4, Seed: seed,
	})
}

// checkpointFiles reads every checkpoint file in dir, keyed by name.
func checkpointFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.dbck"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("no checkpoints in %s", dir)
	}
	out := make(map[string][]byte, len(names))
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(n)] = b
	}
	return out
}

// TestSparseTrainerBitIdenticalAcrossProcs runs the sparse trainer where
// its kernels and the tracked engine actually fan out — models past the
// parallel threshold, at GOMAXPROCS 1, 2 and 4 — through a live and a
// frozen phase, and asserts every run is byte-identical to one dense
// reference: parameters, history and DropBack telemetry from the Result,
// and the per-epoch checkpoints, which carry the tracked-set mask.
func TestSparseTrainerBitIdenticalAcrossProcs(t *testing.T) {
	mnist := MNISTLike(192, 41).Flatten()
	mnistTrain, mnistVal := mnist.Split(128)
	mlpTrain, mlpVal := synthTrainVal(144, 32, 4, 49)
	convTrain, convVal := synthImageTrainVal(48, 3, 16, 4, 43)
	cases := []struct {
		name       string
		factory    func(uint64) *Model
		train, val *Dataset
		cfg        TrainConfig
		// rows and work size the fan-out of the layer each case is built
		// around, checked against the threshold so the test cannot
		// silently stop crossing it.
		rows, work int
	}{
		{
			name: "mnist100", factory: MNIST100100, train: mnistTrain, val: mnistVal,
			cfg: TrainConfig{
				Method: MethodDropBack, Budget: 8961, FreezeAfterEpoch: 1,
				Epochs: 3, BatchSize: 32, Seed: 45,
			},
			rows: 100, work: 32*100*784 + core.RegenWork*100*784,
		},
		{
			name: "wide-mlp", factory: sparseWideMLP, train: mlpTrain, val: mlpVal,
			cfg: TrainConfig{
				Method: MethodDropBack, Budget: 30000, FreezeAfterEpoch: 1,
				Epochs: 3, BatchSize: 32, Seed: 51,
			},
			rows: 256, work: 32*128*256 + core.RegenWork*128*256,
		},
		{
			name: "conv", factory: sparseWideConvModel, train: convTrain, val: convVal,
			cfg: TrainConfig{
				Method: MethodDropBack, Budget: 900, FreezeAfterEpoch: 1,
				Epochs: 3, BatchSize: 16, Seed: 47,
			},
			rows: 16, work: 16*16*256*27 + core.RegenWork*16*27,
		},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range cases {
		runtime.GOMAXPROCS(1)
		refDir := t.TempDir()
		refCfg := tc.cfg
		refCfg.Checkpoint = &CheckpointSpec{Dir: refDir, Every: 1, Keep: -1}
		ref, refParams := runSparseOrDense(t, tc.factory, 5, false, refCfg, tc.train, tc.val)
		refFiles := checkpointFiles(t, refDir)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			if procs > 1 && tensor.ParallelChunkCount(tc.rows, tc.work) < 2 {
				t.Fatalf("%s: first layer does not fan out at GOMAXPROCS=%d", tc.name, procs)
			}
			dir := t.TempDir()
			cfg := tc.cfg
			cfg.Checkpoint = &CheckpointSpec{Dir: dir, Every: 1, Keep: -1}
			got, gotParams := runSparseOrDense(t, tc.factory, 5, true, cfg, tc.train, tc.val)
			ctx := tc.name + "/procs=" + itoa(procs)
			assertSparseRunMatchesDense(t, ctx, ref, got, refParams, gotParams)
			files := checkpointFiles(t, dir)
			if len(files) != len(refFiles) {
				t.Fatalf("%s: %d checkpoints, dense wrote %d", ctx, len(files), len(refFiles))
			}
			for name, want := range refFiles {
				if !bytes.Equal(files[name], want) {
					t.Fatalf("%s: checkpoint %s differs from the dense run's", ctx, name)
				}
			}
		}
	}
}
