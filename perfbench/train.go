package main

import (
	"fmt"
	"math"
	"time"

	"dropback"
	"dropback/internal/core"
	"dropback/internal/data"
	"dropback/internal/nn"
	"dropback/internal/optim"
	"dropback/internal/sparsenn"
	"dropback/internal/tensor"
)

// The training set-up every train-* workload shares: MNIST-100-100 on
// MNISTLike data, DropBack with a 10% budget, live epochs then frozen ones.
const (
	trainSamples = 2000
	valSamples   = 1000
	batchSize    = 32
	budget       = 8961 // 10% of MNIST-100-100's 89,610 parameters
	liveEpochs   = 2
	frozenEpochs = 2
	// trainSetups is how many times a train-* run builds its set-up: it
	// takes a third of a second, so a few more builds steady the median.
	trainSetups = 5
	// valErrFloor is the highest best validation error a correct run
	// reaches; a higher one means training went wrong.
	valErrFloor = 0.30
)

var lrSchedule = optim.StepDecay{Initial: 0.1, Factor: 0.5, Every: 2, MaxDecays: 4}

type trainMode int

const (
	modeDense trainMode = iota
	modeSparse
)

func (m trainMode) String() string {
	if m == modeSparse {
		return "sparse"
	}
	return "dense"
}

// trainInputs are one seed's generated inputs.
type trainInputs struct {
	train, val *dropback.Dataset
	modelSeed  uint64
	batchSeed  uint64
}

func makeTrainInputs(seed uint64) trainInputs {
	ds := dropback.MNISTLike(trainSamples+valSamples, seed).Flatten()
	train, val := ds.Split(trainSamples)
	return trainInputs{train: train, val: val, modelSeed: seed + 1, batchSeed: seed + 2}
}

func (in trainInputs) config(mode trainMode) dropback.TrainConfig {
	return dropback.TrainConfig{
		Method:           dropback.MethodDropBack,
		Epochs:           liveEpochs + frozenEpochs,
		BatchSize:        batchSize,
		Schedule:         lrSchedule,
		Seed:             in.batchSeed,
		Budget:           budget,
		FreezeAfterEpoch: liveEpochs - 1,
		SparseTrain:      mode == modeSparse,
		Quiet:            true,
	}
}

func (in trainInputs) stepsPerEpoch() int { return in.train.Len() / batchSize }

// trainRun is one timed TrainE call, split at the epoch boundaries the
// Progress callback marks (each epoch's validation pass included).
type trainRun struct {
	res    *dropback.Result
	hash   uint64
	epochs []time.Duration
	wall   time.Duration
}

func (r trainRun) live() []time.Duration   { return r.epochs[:min(liveEpochs, len(r.epochs))] }
func (r trainRun) frozen() []time.Duration { return r.epochs[min(liveEpochs, len(r.epochs)):] }

// trainOnce runs TrainE on a fresh model.
func trainOnce(in trainInputs, cfg dropback.TrainConfig) (trainRun, error) {
	m := dropback.MNIST100100(in.modelSeed)
	var marks []time.Time
	cfg.Progress = func(string) { marks = append(marks, time.Now()) }
	start := time.Now()
	res, err := dropback.TrainE(m, in.train, in.val, cfg)
	wall := time.Since(start)
	if err != nil {
		return trainRun{}, err
	}
	run := trainRun{res: res, hash: paramHash(m), wall: wall}
	prev := start
	for _, t := range marks {
		run.epochs = append(run.epochs, t.Sub(prev))
		prev = t
	}
	return run, nil
}

// checkTraining records the output checks every training run makes.
func checkTraining(rep *report, what string, res *dropback.Result, epochs int) {
	rep.check(!res.Diverged, "%s: training diverged", what)
	rep.check(len(res.History) == liveEpochs+frozenEpochs && epochs == liveEpochs+frozenEpochs,
		"%s: %d epochs recorded, want %d", what, len(res.History), liveEpochs+frozenEpochs)
	rep.check(res.BestValErr > 0 && res.BestValErr < valErrFloor,
		"%s: best validation error %.4f outside (0, %.2f)", what, res.BestValErr, valErrFloor)
}

// stepMS converts epoch wall times to milliseconds per training step.
func stepMS(epochs []time.Duration, steps int) []float64 {
	out := make([]float64, len(epochs))
	for i, e := range epochs {
		out[i] = ms(e) / float64(steps)
	}
	return out
}

// runThroughput is the training samples per second of a run whose live and
// frozen epochs each take the median of their epochs' step times (ms). The
// median over epochs, not whole runs, is what keeps a burst of load on the
// machine that slows one or two epochs out of the figure.
func runThroughput(live, frozen []float64) float64 {
	epochMS := float64(liveEpochs)*median(live) + float64(frozenEpochs)*median(frozen)
	return batchSize * 1000 * float64(liveEpochs+frozenEpochs) / epochMS
}

// runTrain runs the train-dense or train-sparse workload.
func runTrain(o options, mode trainMode) (*report, error) {
	rep := newReport()
	in, setup, err := timedSetup(trainSetups, func() (trainInputs, error) {
		in := makeTrainInputs(o.seed)
		dropback.MNIST100100(in.modelSeed)
		return in, nil
	})
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceTrain(o, rep, in, mode)
	}

	cfg := in.config(mode)
	steps := in.stepsPerEpoch()
	heap := startHeapSampler()
	var runs []trainRun
	for b := newRunBudget(o.seconds); b.more(); {
		run, err := trainOnce(in, cfg)
		if err != nil {
			heap.medianMiB()
			return nil, err
		}
		runs = append(runs, run)
		b.done(run.wall)
	}
	heapMiB := heap.medianMiB()

	var live, frozen []float64
	for i, r := range runs {
		checkTraining(rep, fmt.Sprintf("run %d", i), r.res, len(r.epochs))
		rep.check(r.hash == runs[0].hash, "run %d: parameter hash %016x differs from run 0's %016x", i, r.hash, runs[0].hash)
		live = append(live, stepMS(r.live(), steps)...)
		frozen = append(frozen, stepMS(r.frozen(), steps)...)
	}

	weightBytes := float64(8 * dropback.MNIST100100(in.modelSeed).Set.Total())
	if mode == modeSparse {
		// TrainE does not expose the sparse engine, so the weight state is
		// read from the rebuilt loop, which must also land on TrainE's hash.
		m, tl, err := rebuiltLoop(in, mode, nil)
		if err != nil {
			return nil, err
		}
		h := paramHash(m)
		rep.check(h == runs[0].hash, "rebuilt sparse loop hash %016x differs from TrainE's %016x", h, runs[0].hash)
		weightBytes = float64(tl.weightState)
	}

	rep.set("setup_s", setup)
	rep.set("throughput_per_s", runThroughput(live, frozen))
	rep.set("latency_ms.heavy", median(live))
	rep.set("latency_ms.light", median(frozen))
	rep.set("val_acc", runs[0].res.BestValAcc)
	rep.set("weight_bytes", weightBytes)
	rep.set("heap_live_mb.p50", heapMiB)
	rep.note("%d TrainE runs of %d live + %d frozen epochs x %d steps of %d samples", len(runs), liveEpochs, frozenEpochs, steps, batchSize)
	rep.note("train_samples_per_s.live %.1f  train_samples_per_s.frozen %.1f",
		batchSize*1000/median(live), batchSize*1000/median(frozen))
	rep.note("final parameter hash %016x", runs[0].hash)
	return rep, nil
}

// loopStats are the counts and state sizes the rebuilt loop observes.
type loopStats struct {
	steps       [2]int // live, frozen
	swapsLive   int64
	regens      int64
	writes      int64
	weightState int64
	denseState  int64
	wall        time.Duration
}

// rebuiltLoop replays TrainE's DropBack step from the modules' public
// calls: the batcher, the dense or sparse forward/backward, SGD, the
// DropBack constraint, epoch-end freezing and densifying, evaluation and
// best-epoch restore. With a tracer it records a span around every call.
// It must end with the same parameters as TrainE on the same inputs.
func rebuiltLoop(in trainInputs, mode trainMode, tr *tracer) (*dropback.Model, loopStats, error) {
	var st loopStats
	cfg := in.config(mode)
	m := dropback.MNIST100100(in.modelSeed)
	start := time.Now()

	ccfg := core.Config{Budget: cfg.Budget, FreezeAfterEpoch: cfg.FreezeAfterEpoch}
	var (
		db     *core.DropBack
		eng    *core.TrackedTrainer
		mirror nn.Layer
	)
	if mode == modeSparse {
		eng = core.NewTrackedTrainer(m.Set, ccfg)
		var err error
		if mirror, err = sparsenn.NewTrainingMirror(m, eng); err != nil {
			return nil, st, err
		}
	} else {
		db = core.New(m.Set, ccfg)
	}
	// TrainE derives its batch order from the config seed this way.
	batcher := data.NewBatcher(in.train, cfg.BatchSize, cfg.Seed^0xBA7C4)
	sgd := optim.NewSGD(0)
	best, bestEpoch := 0.0, 0
	bestSnap := m.Set.Snapshot()
	var bestBN [][]float32

	var group int64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		phase := "live"
		if epoch >= liveEpochs {
			phase = "frozen"
		}
		sgd.LR = cfg.Schedule.At(epoch)
		for b := 0; b < batcher.BatchesPerEpoch(); b++ {
			group++
			t0 := time.Now()
			stepID := tr.id()
			x, y := batcher.Next()
			tr.span("data.next", phase, group, stepID, t0)
			var loss float64
			t := time.Now()
			if eng != nil {
				loss, _ = sparsenn.TrainStep(m, mirror, x, y)
				tr.span("sparsenn.train_step", phase, group, stepID, t)
			} else {
				m.Set.ZeroGrads()
				logits := m.Net.Forward(x, true)
				loss, _ = m.Loss.Forward(logits, y)
				tr.span("nn.forward", phase, group, stepID, t)
				t = time.Now()
				m.Net.Backward(m.Loss.Backward())
				tr.span("nn.backward", phase, group, stepID, t)
			}
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return nil, st, fmt.Errorf("rebuilt %v loop diverged at epoch %d", mode, epoch+1)
			}
			var swaps int
			if eng != nil {
				t = time.Now()
				swaps = eng.Apply(sgd.LR)
				tr.span("core.tracked_apply", phase, group, stepID, t)
			} else {
				t = time.Now()
				sgd.Step(m.Set)
				tr.span("optim.sgd", phase, group, stepID, t)
				t = time.Now()
				swaps = db.Apply()
				tr.span("core.apply", phase, group, stepID, t)
			}
			tr.add(stepID, "train.step", phase, group, 0, t0, time.Now())
			if phase == "live" {
				st.steps[0]++
				st.swapsLive += int64(swaps)
			} else {
				st.steps[1]++
			}
		}
		group++
		if eng != nil {
			eng.MaybeFreezeAtEpochEnd(epoch)
			t := time.Now()
			eng.Densify()
			tr.span("core.densify", phase, group, 0, t)
		} else {
			db.MaybeFreezeAtEpochEnd(epoch)
		}
		t := time.Now()
		valLoss, valAcc := dropback.Evaluate(m, in.val, cfg.BatchSize)
		tr.span("nn.eval", phase, group, 0, t)
		if math.IsNaN(valLoss) || math.IsInf(valLoss, 0) {
			return nil, st, fmt.Errorf("rebuilt %v loop diverged in validation at epoch %d", mode, epoch+1)
		}
		if valAcc > best {
			best, bestEpoch = valAcc, epoch+1
			bestSnap = m.Set.Snapshot()
			bestBN = nn.CaptureBNState(m.Net)
		}
	}
	if bestEpoch > 0 {
		m.Set.Restore(bestSnap)
		nn.RestoreBNState(m.Net, bestBN)
	}
	st.wall = time.Since(start)
	if eng != nil {
		st.regens, st.writes = eng.Regenerations(), eng.TrackedWrites()
		st.weightState, st.denseState = eng.WeightStateBytes(), eng.DenseWeightStateBytes()
	} else {
		st.regens, st.writes = db.Regenerations(), db.TrackedWrites()
		st.denseState = int64(8 * m.Set.Total())
		st.weightState = st.denseState
	}
	return m, st, nil
}

// traceTrain is the traced variant: untraced TrainE and the traced rebuilt
// loop alternate until the time is up; both must end on one hash.
func traceTrain(o options, rep *report, in trainInputs, mode trainMode) (*report, error) {
	cfg := in.config(mode)
	tr := newTracer()
	var untraced, traced []float64
	var st loopStats
	var hits, misses uint64
	for b := newRunBudget(o.seconds); b.more(); {
		i := b.runs
		run, err := trainOnce(in, cfg)
		if err != nil {
			return nil, err
		}
		checkTraining(rep, fmt.Sprintf("TrainE run %d", i), run.res, len(run.epochs))
		h1, m1, _ := tensor.WorkspaceStats()
		m, s, err := rebuiltLoop(in, mode, tr)
		if err != nil {
			return nil, err
		}
		h2, m2, _ := tensor.WorkspaceStats()
		hits, misses = hits+h2-h1, misses+m2-m1
		h := paramHash(m)
		rep.check(h == run.hash, "traced %v loop hash %016x differs from TrainE's %016x", mode, h, run.hash)
		untraced = append(untraced, run.wall.Seconds())
		traced = append(traced, s.wall.Seconds())
		st = s
		b.done(run.wall + s.wall)
		if i == 0 {
			rep.note("final parameter hash %016x (TrainE and traced loop)", h)
		}
	}

	steps := float64(st.steps[0] + st.steps[1])
	spanMS := func(name, phase string) float64 { return median(tr.durations(name, phase)) }
	rep.set("data.next_us", 1000*spanMS("data.next", ""))
	rep.set("nn.forward_ms", spanMS("nn.forward", ""))
	rep.set("nn.backward_ms", spanMS("nn.backward", ""))
	rep.set("nn.eval_ms", spanMS("nn.eval", ""))
	if hits+misses > 0 {
		rep.set("tensor.workspace_hit_frac", float64(hits)/float64(hits+misses))
	}
	rep.set("optim.sgd_us", 1000*spanMS("optim.sgd", ""))
	rep.set("core.apply_ms.live", spanMS("core.apply", "live"))
	rep.set("core.apply_ms.frozen", spanMS("core.apply", "frozen"))
	rep.set("core.regens_per_step", float64(st.regens)/steps)
	rep.set("core.tracked_writes_per_step", float64(st.writes)/steps)
	rep.set("core.swaps_per_step.live", float64(st.swapsLive)/float64(st.steps[0]))
	rep.set("core.tracked_apply_ms.live", spanMS("core.tracked_apply", "live"))
	rep.set("core.tracked_apply_ms.frozen", spanMS("core.tracked_apply", "frozen"))
	rep.set("core.densify_ms", spanMS("core.densify", ""))
	if mode == modeSparse {
		rep.set("core.weight_state_frac", float64(st.weightState)/float64(st.denseState))
	}
	rep.set("sparsenn.train_step_ms.live", spanMS("sparsenn.train_step", "live"))
	rep.set("sparsenn.train_step_ms.frozen", spanMS("sparsenn.train_step", "frozen"))
	rep.set("trace.wall_s", median(traced))
	rep.set("trace.overhead_s", median(traced)-median(untraced))
	rep.note("%d pairs of untraced TrainE (median %.3f s) and traced loop (median %.3f s)", len(traced), median(untraced), median(traced))
	return rep, tr.write(o)
}
