package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dropback"
	"dropback/internal/tensor"
)

// The serve-sparse set-up: two DropBack artifacts of MNIST-100-100, served
// by sparse executors and hot-reloaded in turn as canaries.
const (
	serveReplicas = 2
	serveMaxBatch = 8
	canaryPercent = 10
	// latencyLimit is the p99 limit a phase must meet to count its rate as
	// served, and the limit goodput is counted within.
	latencyLimit = 20 * time.Millisecond
	// requestTimeout bounds one request; a request that hits it failed.
	requestTimeout = 10 * time.Second
	// Each cycle runs the low, mid and over phases for phaseDur each, then
	// sends nothing for drainDur so the next low phase starts on empty
	// queues. A run repeats the cycle, so a burst of noise on the machine
	// lands in some cycles of every phase rather than in all of one phase.
	phaseDur = time.Second
	drainDur = 250 * time.Millisecond
	// stallLate is the generator lateness that marks a pause of the whole
	// process (the machine descheduling it), not of the server alone: the
	// generator then sends the overdue requests in one burst, and shedding
	// them is the server's specified answer.
	stallLate = 50 * time.Millisecond
	// serveSetups is how many times a serve-sparse run builds its set-up
	// (about 4 s each).
	serveSetups = 3
	// reloadAttempts bounds the retries of a reload that finds another
	// reload or a canary evaluation holding the server's reload lock.
	reloadAttempts = 100
)

// The phase kinds with their fixed rates, and the tier mix (interactive,
// batch, best-effort).
const (
	kindLow = iota
	kindMid
	kindOver
	kindDrain
)

var (
	serveRates = []struct {
		name string
		rate float64
	}{{"low", 1000}, {"mid", 1500}, {"over", 6000}, {"drain", 0}}
	tierMix   = []float64{0.6, 0.3, 0.1}
	tierNames = []string{"interactive", "batch", "best-effort"}
)

// serveSetup is everything built before the timed phases.
type serveSetup struct {
	val       *dropback.Dataset
	srv       *dropback.Server
	artifacts [2][]byte // boot and canary artifacts, serialized for Reload
	refs      [2][]int  // each artifact's reference class per input
	valAcc    float64
	compileMS float64
}

// trainArtifact trains one DropBack model and compresses it.
func trainArtifact(in trainInputs, cfg dropback.TrainConfig) (*dropback.SparseArtifact, error) {
	m := dropback.MNIST100100(in.modelSeed)
	if _, err := dropback.TrainE(m, in.train, in.val, cfg); err != nil {
		return nil, err
	}
	return dropback.CompressSparse(m), nil
}

// denseModel rebuilds a dense model from an artifact.
func denseModel(a *dropback.SparseArtifact) (*dropback.Model, error) {
	m := dropback.MNIST100100(a.ModelSeed)
	return m, a.Apply(m)
}

// referenceClasses computes the class a dense replica of the artifact
// gives every input, the way the server derives it (softmax, then the first
// largest probability).
func referenceClasses(m *dropback.Model, ds *dropback.Dataset) []int {
	out := make([]int, 0, ds.Len())
	for lo := 0; lo < ds.Len(); lo += batchSize {
		x, _ := ds.Batch(lo, min(lo+batchSize, ds.Len()))
		probs := tensor.SoftmaxRows(m.Net.Forward(x, false))
		k := probs.Shape[1]
		for i := 0; i < probs.Shape[0]; i++ {
			row := probs.Data[i*k : (i+1)*k]
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			out = append(out, best)
		}
	}
	return out
}

// sparseBuilder compiles an artifact and returns a replica constructor
// over the shared plan, each replica wrapped by wrap.
func sparseBuilder(a *dropback.SparseArtifact, wrap func(*dropback.SparseExecutor) dropback.ServeReplica) (func() (dropback.ServeReplica, error), error) {
	plan, err := dropback.CompileSparse(dropback.MNIST100100(a.ModelSeed), a)
	if err != nil {
		return nil, err
	}
	return func() (dropback.ServeReplica, error) { return wrap(dropback.NewSparseExecutor(plan)), nil }, nil
}

func buildServe(seed uint64, wrap func(*dropback.SparseExecutor) dropback.ServeReplica) (*serveSetup, error) {
	in := makeTrainInputs(seed)
	s := &serveSetup{val: in.val}
	// The boot artifact is train-dense's model; the canary is one live
	// epoch in another batch order.
	cfg := in.config(modeDense)
	var arts [2]*dropback.SparseArtifact
	for i := range arts {
		a, err := trainArtifact(in, cfg)
		if err != nil {
			return nil, fmt.Errorf("training artifact %d: %w", i, err)
		}
		m, err := denseModel(a)
		if err != nil {
			return nil, err
		}
		s.refs[i] = referenceClasses(m, in.val)
		if i == 0 {
			_, s.valAcc = dropback.Evaluate(m, in.val, batchSize)
		}
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			return nil, err
		}
		arts[i], s.artifacts[i] = a, buf.Bytes()
		cfg.Epochs, cfg.Seed = 1, cfg.Seed+1
	}

	start := time.Now()
	build, err := sparseBuilder(arts[0], wrap)
	if err != nil {
		return nil, err
	}
	s.compileMS = ms(time.Since(start))
	s.srv, err = dropback.NewServer(dropback.ServeConfig{
		NewSparseReplica: build,
		Compile: func(r io.Reader) (func() (dropback.ServeReplica, error), error) {
			a, err := dropback.ReadSparse(r)
			if err != nil {
				return nil, err
			}
			return sparseBuilder(a, wrap)
		},
		InputShape: []int{784},
		Replicas:   serveReplicas,
		MaxBatch:   serveMaxBatch,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// inferStats accumulates what the traced replica wrapper sees.
type inferStats struct {
	mu      sync.Mutex
	calls   int
	rows    int
	busy    [kindDrain + 1]time.Duration // per phase kind
	total   time.Duration
	tracked int64
	regens  int64
}

// tracedReplica times every Executor.Infer call and reads the executor's
// weight-traffic counters after it.
type tracedReplica struct {
	ex   *dropback.SparseExecutor
	tr   *tracer
	st   *inferStats
	kind func() int
}

func (r *tracedReplica) Infer(x *tensor.Tensor) *tensor.Tensor {
	start := time.Now()
	out := r.ex.Infer(x)
	end := time.Now()
	traffic := r.ex.WeightTraffic()
	r.ex.ResetTraffic()
	k := r.kind()
	r.tr.add(r.tr.id(), "sparsenn.infer", serveRates[k].name, 0, 0, start, end)
	d := end.Sub(start)
	r.st.mu.Lock()
	r.st.calls++
	r.st.rows += x.Shape[0]
	r.st.busy[k] += d
	r.st.total += d
	r.st.tracked += traffic.DRAMReads
	r.st.regens += traffic.Regenerations
	r.st.mu.Unlock()
	return out
}

func (r *tracedReplica) WeightBytes() (shared, private int) { return r.ex.WeightBytes() }

// statsPoll is one timed Server.Stats call.
type statsPoll struct {
	kind  int
	took  time.Duration
	stats dropback.ServerStats
}

// reloadRun is one canary reload.
type reloadRun struct {
	artifact int
	took     time.Duration
	res      dropback.ReloadResult
	err      error
}

// reload hot-reloads an artifact as a canary, retrying while the server's
// reload lock is busy.
func reload(srv *dropback.Server, artifact []byte) (dropback.ReloadResult, error) {
	for i := 0; ; i++ {
		res, err := srv.Reload(bytes.NewReader(artifact), dropback.ReloadOptions{CanaryPercent: canaryPercent})
		if !errors.Is(err, dropback.ErrReloadInProgress) || i == reloadAttempts {
			return res, err
		}
		time.Sleep(time.Millisecond)
	}
}

// runServe runs the serve-sparse workload.
func runServe(o options) (*report, error) {
	rep := newReport()
	cycles := max(1, int(o.seconds/(3*phaseDur+drainDur).Seconds()))
	var phases []phaseSpec
	for c := 0; c < cycles; c++ {
		for k, r := range serveRates {
			d := phaseDur
			if k == kindDrain {
				d = drainDur
			}
			phases = append(phases, phaseSpec{name: r.name, kind: k, cycle: c, rate: r.rate, dur: d})
		}
	}
	var current atomic.Int32
	kind := func() int { return phases[current.Load()].kind }

	var tr *tracer
	ist := &inferStats{}
	wrap := func(ex *dropback.SparseExecutor) dropback.ServeReplica { return ex }
	if o.trace {
		tr = newTracer()
		wrap = func(ex *dropback.SparseExecutor) dropback.ServeReplica {
			return &tracedReplica{ex: ex, tr: tr, st: ist, kind: kind}
		}
	}
	var built []*serveSetup
	var compile []float64
	s, setup, err := timedSetup(serveSetups, func() (*serveSetup, error) {
		s, err := buildServe(o.seed, wrap)
		if err == nil {
			built = append(built, s)
			compile = append(compile, s.compileMS)
		}
		return s, err
	})
	for _, b := range built {
		if b != s {
			b.srv.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	defer s.srv.Close()

	reqs := schedule(phases, tierMix, s.val.Len(), o.seed)
	inputs := make([][]float32, s.val.Len())
	for i := range inputs {
		inputs[i] = s.val.X.Data[i*784 : (i+1)*784]
	}

	// Admin traffic beside the predictions: a canary reload as every mid
	// phase begins, alternating the artifacts, and one Stats poll halfway
	// through every phase, so each phase of each cycle sees the same admin
	// load.
	var (
		adminMu sync.Mutex
		polls   []statsPoll
		reloads []reloadRun
		admin   sync.WaitGroup
	)
	onPhase := func(p int) {
		ph := phases[p]
		pollAt := time.Now().Add(ph.dur / 2)
		admin.Add(1)
		go func() {
			defer admin.Done()
			if ph.kind == kindMid {
				art := 1 - ph.cycle%2
				start := time.Now()
				res, err := reload(s.srv, s.artifacts[art])
				end := time.Now()
				tr.add(tr.id(), "serve.reload", ph.name, 0, 0, start, end)
				adminMu.Lock()
				reloads = append(reloads, reloadRun{artifact: art, took: end.Sub(start), res: res, err: err})
				adminMu.Unlock()
			}
			time.Sleep(time.Until(pollAt))
			start := time.Now()
			st := s.srv.Stats()
			end := time.Now()
			tr.add(tr.id(), "serve.stats", ph.name, 0, 0, start, end)
			adminMu.Lock()
			polls = append(polls, statsPoll{kind: ph.kind, took: end.Sub(start), stats: st})
			adminMu.Unlock()
		}()
	}
	send := func(r *openReq) outcome {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		pred, err := s.srv.PredictTier(ctx, inputs[r.input], dropback.ServeTier(r.tier))
		if err != nil {
			return outcome{err: err, shed: errors.Is(err, dropback.ErrServerOverloaded)}
		}
		return outcome{ok: true, class: pred.Class, version: pred.Version, batch: pred.BatchSize}
	}

	heap := startHeapSampler()
	wall := time.Now()
	runOpenLoop(reqs, &current, onPhase, send)
	wallS := time.Since(wall).Seconds()
	heapMiB := heap.medianMiB()
	admin.Wait()
	final := s.srv.Stats()

	refs := map[string][]int{"v1": s.refs[0]}
	var reloadMS []float64
	for _, r := range reloads {
		rep.check(r.err == nil, "canary reload of artifact %d failed: %v", r.artifact, r.err)
		if r.err == nil {
			refs[r.res.Version] = s.refs[r.artifact]
			reloadMS = append(reloadMS, ms(r.took))
		}
	}
	sum := summarize(rep, reqs, phases, cycles, refs)
	rep.note("%d cycles; %d reloads: %d promotions, %d rollbacks", cycles, len(reloads), final.Promotions, final.Rollbacks)

	if o.trace {
		setServeLayers(rep, tr, ist, sum, polls, cycles, compile, reloadMS, final, reqs)
		rep.set("trace.wall_s", wallS)
		rep.set("trace.overhead_s", tr.recordCost()*float64(tr.count()))
		// One span per request, from its due time to its answer, added
		// after the run so it costs the run nothing.
		for i := range reqs {
			r := &reqs[i]
			tr.add(tr.id(), "serve.request", phases[r.phase].name, int64(i), 0, r.due, r.done)
		}
		return rep, tr.write(o)
	}
	// The first poll runs halfway through the first low phase, before any
	// reload: the boot version's footprint.
	weight := 0.0
	if len(polls) > 0 {
		st := polls[0].stats
		weight = float64(st.SharedWeightBytes + st.WeightBytesPerReplica*st.Replicas)
	}
	rep.check(weight > 0, "no Stats poll reported the serving weight bytes")
	rep.set("setup_s", setup)
	rep.set("throughput_per_s", median(sum[kindOver].cycleAnswered))
	rep.set("latency_ms.heavy", median(sum[kindMid].cycleP50))
	rep.set("latency_ms.light", median(sum[kindLow].cycleP50))
	rep.set("val_acc", s.valAcc)
	rep.set("weight_bytes", weight)
	rep.set("heap_live_mb.p50", heapMiB)
	return rep, nil
}

// phaseSummary is one phase kind's outcome over every cycle.
type phaseSummary struct {
	// Latencies in ms from the due time, over successful requests.
	p50, p99, interactiveP99 float64
	// Per cycle: p50, p90, p99, answers per second, and goodput (correct
	// answers within the latency limit per second).
	cycleP50, cycleP90, cycleP99, cycleAnswered, cycleGoodput []float64
	sent, ok, shed, failed                                    [3]int // per tier
	// stallShed counts refusals outside over in phases where the generator
	// itself was stalled; they are not failures.
	stallShed int
	batchMean float64
}

// summarize checks every answer against the reference class of the version
// that computed it, counts refusals outside the over phase as failures
// unless the generator was stalled in that phase (see stallLate), and
// reports each phase kind per tier.
func summarize(rep *report, reqs []openReq, phases []phaseSpec, cycles int, refs map[string][]int) []phaseSummary {
	out := make([]phaseSummary, kindDrain)
	lat := make([][]float64, kindDrain)
	inter := make([][]float64, kindDrain)
	batch := make([][]float64, kindDrain)
	perPhase := make([][]float64, len(phases))
	good := make([]float64, len(phases))
	stalled := make([]bool, len(phases))
	for i := range reqs {
		if reqs[i].late >= stallLate {
			stalled[reqs[i].phase] = true
		}
	}
	var late []float64
	for i := range reqs {
		r := &reqs[i]
		ph := phases[r.phase]
		ps := &out[ph.kind]
		ps.sent[r.tier]++
		late = append(late, ms(r.late))
		switch {
		case r.out.ok:
			ref, known := refs[r.out.version]
			right := known && ref[r.input] == r.out.class
			rep.check(right, "request %d (%s): version %q answered class %d for input %d", i, ph.name, r.out.version, r.out.class, r.input)
			if !right {
				ps.failed[r.tier]++
				continue
			}
			ps.ok[r.tier]++
			l := ms(r.latency())
			lat[ph.kind] = append(lat[ph.kind], l)
			perPhase[r.phase] = append(perPhase[r.phase], l)
			if r.tier == 0 {
				inter[ph.kind] = append(inter[ph.kind], l)
			}
			batch[ph.kind] = append(batch[ph.kind], float64(r.out.batch))
			if r.latency() <= latencyLimit {
				good[r.phase]++
			}
		case r.out.shed && ph.kind == kindOver:
			rep.check(true, "")
			ps.shed[r.tier]++
		case r.out.shed && stalled[r.phase]:
			rep.check(true, "")
			ps.shed[r.tier]++
			ps.stallShed++
		default:
			rep.check(false, "request %d (%s, %s): %v", i, ph.name, tierNames[r.tier], r.out.err)
			if r.out.shed {
				ps.shed[r.tier]++
			} else {
				ps.failed[r.tier]++
			}
		}
	}
	for p, ph := range phases {
		if ph.kind == kindDrain {
			continue
		}
		ps := &out[ph.kind]
		ps.cycleP50 = append(ps.cycleP50, quantile(perPhase[p], 0.5))
		ps.cycleP90 = append(ps.cycleP90, quantile(perPhase[p], 0.90))
		ps.cycleP99 = append(ps.cycleP99, quantile(perPhase[p], 0.99))
		ps.cycleAnswered = append(ps.cycleAnswered, float64(len(perPhase[p]))/ph.dur.Seconds())
		ps.cycleGoodput = append(ps.cycleGoodput, good[p]/ph.dur.Seconds())
	}
	maxRPS := 0.0
	for k := range out {
		ps := &out[k]
		ps.p50, ps.p99 = quantile(lat[k], 0.5), quantile(lat[k], 0.99)
		ps.interactiveP99 = quantile(inter[k], 0.99)
		ps.batchMean = mean(batch[k])
		refused := 0
		for t := range tierNames {
			refused += ps.shed[t] + ps.failed[t]
		}
		if refused == 0 && ps.p99 <= ms(latencyLimit) {
			maxRPS = max(maxRPS, serveRates[k].rate)
		}
		rep.note("%-4s %4.0f req/s, %d x %v: p50 %.3f ms  p99 %.3f ms  interactive p99 %.3f ms  mean batch %.2f",
			serveRates[k].name, serveRates[k].rate, cycles, phaseDur, ps.p50, ps.p99, ps.interactiveP99, ps.batchMean)
		rep.note("     median of cycles: p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  answered %.1f/s  goodput %.1f/s",
			median(ps.cycleP50), median(ps.cycleP90), median(ps.cycleP99), median(ps.cycleAnswered), median(ps.cycleGoodput))
		if ps.stallShed > 0 {
			rep.note("     %d refused while the generator was stalled %v or more", ps.stallShed, stallLate)
		}
		for t, name := range tierNames {
			rep.note("     %-11s sent %6d  ok %6d  shed %6d  failed %d", name, ps.sent[t], ps.ok[t], ps.shed[t], ps.failed[t])
		}
	}
	rep.note("serve_max_rps %.0f (p99 limit %v, no refusals)  generator lateness p99 %.3f ms, max %.3f ms",
		maxRPS, latencyLimit, quantile(late, 0.99), quantile(late, 1))
	return out
}

// setServeLayers reports the serve-sparse per-layer metrics.
func setServeLayers(rep *report, tr *tracer, ist *inferStats, sum []phaseSummary, polls []statsPoll,
	cycles int, compile, reloadMS []float64, final dropback.ServerStats, reqs []openReq) {
	ist.mu.Lock()
	defer ist.mu.Unlock()
	rep.set("sparsenn.infer_us", 1000*median(tr.durations("sparsenn.infer", "")))
	if ist.calls > 0 {
		rep.set("sparsenn.rows_per_infer", float64(ist.rows)/float64(ist.calls))
	}
	if w := ist.tracked + ist.regens; w > 0 {
		rep.set("sparsenn.ns_per_weight", float64(ist.total.Nanoseconds())/float64(w))
	}
	if ist.rows > 0 {
		rep.set("sparsenn.regens_per_row", float64(ist.regens)/float64(ist.rows))
		rep.set("sparsenn.tracked_reads_per_row", float64(ist.tracked)/float64(ist.rows))
	}
	rep.set("sparsenn.compile_ms", median(compile))
	for k := kindLow; k < kindDrain; k++ {
		wall := float64(cycles) * phaseDur.Seconds()
		rep.set("serve.replica_busy_frac."+serveRates[k].name, ist.busy[k].Seconds()/(serveReplicas*wall))
	}
	depth := make([][]float64, kindDrain+1)
	var statsUS []float64
	for _, pl := range polls {
		depth[pl.kind] = append(depth[pl.kind], float64(pl.stats.QueueDepth))
		statsUS = append(statsUS, us(pl.took))
	}
	for _, k := range []int{kindMid, kindOver} {
		name := serveRates[k].name
		rep.set("serve.batch_size."+name, sum[k].batchMean)
		rep.set("serve.queue_depth."+name, mean(depth[k]))
	}
	over := sum[kindOver]
	for t, name := range tierNames {
		if over.sent[t] > 0 {
			rep.set("serve.shed_frac."+name, float64(over.shed[t])/float64(over.sent[t]))
		}
	}
	rep.set("serve.stats_us.p50", quantile(statsUS, 0.5))
	rep.set("serve.stats_us.p99", quantile(statsUS, 0.99))
	rep.set("serve.reload_ms", median(reloadMS))
	rep.set("serve.canary_promotions", float64(final.Promotions))
	rep.set("serve.canary_rollbacks", float64(final.Rollbacks))
	var late []float64
	for i := range reqs {
		late = append(late, ms(reqs[i].late))
	}
	rep.set("serve.gen_late_ms.p99", quantile(late, 0.99))
	rep.note("%d Stats polls; %d traced Infer calls", len(polls), ist.calls)
}
