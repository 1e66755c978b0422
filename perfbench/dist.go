package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dropback"
	"dropback/internal/dist"
)

const distWorld = 2

// wireConn wraps one node's peer connection after the handshake. It records
// the size of every write (the exchange writes one whole step frame per
// call) and, when timed, how long each read blocked.
type wireConn struct {
	net.Conn
	tr    *tracer
	timed bool

	mu       sync.Mutex
	frames   []int
	readWait time.Duration
}

func (c *wireConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.frames = append(c.frames, n)
	c.mu.Unlock()
	return n, err
}

func (c *wireConn) Read(p []byte) (int, error) {
	if !c.timed {
		return c.Conn.Read(p)
	}
	start := time.Now()
	n, err := c.Conn.Read(p)
	end := time.Now()
	c.mu.Lock()
	c.readWait += end.Sub(start)
	step := int64(len(c.frames))
	c.mu.Unlock()
	c.tr.add(c.tr.id(), "dist.read", "", step, 0, start, end)
	return n, err
}

// wireMark is a node's wire state at one epoch boundary.
type wireMark struct {
	frames   int
	readWait time.Duration
}

func (c *wireConn) mark() wireMark {
	c.mu.Lock()
	defer c.mu.Unlock()
	return wireMark{len(c.frames), c.readWait}
}

// distNode is one node's outcome of a two-node run.
type distNode struct {
	run   trainRun
	conn  *wireConn
	marks []wireMark // at each epoch end
}

// distOnce trains one two-node run over loopback TCP: both nodes run
// TrainE on their own model replica, concurrently in this process.
func distOnce(in trainInputs, timed bool, tr *tracer) ([distWorld]distNode, error) {
	var nodes [distWorld]distNode
	addrs := make([]string, distWorld)
	lns := make([]net.Listener, distWorld)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return nodes, fmt.Errorf("binding node %d: %w", r, err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	errs := make([]error, distWorld)
	var wg sync.WaitGroup
	for r := range nodes {
		node := &nodes[r]
		cfg := in.config(modeDense)
		cfg.Dist = &dist.Config{
			Rank: r, Peers: addrs, Listener: lns[r],
			ConnectTimeout: 20 * time.Second, StepTimeout: 60 * time.Second,
			WrapConn: func(_ int, c net.Conn) net.Conn {
				node.conn = &wireConn{Conn: c, tr: tr, timed: timed}
				return node.conn
			},
		}
		var marks []time.Time
		cfg.Progress = func(string) {
			marks = append(marks, time.Now())
			node.marks = append(node.marks, node.conn.mark())
		}
		m := dropback.MNIST100100(in.modelSeed)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			start := time.Now()
			res, err := dropback.TrainE(m, in.train, in.val, cfg)
			if err != nil {
				errs[r] = fmt.Errorf("node %d: %w", r, err)
				return
			}
			node.run = trainRun{res: res, hash: paramHash(m), wall: time.Since(start)}
			prev := start
			for _, t := range marks {
				node.run.epochs = append(node.run.epochs, t.Sub(prev))
				prev = t
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nodes, err
		}
	}
	return nodes, nil
}

// checkDist records the output checks of one two-node run: each node trains
// correctly, both end on one hash, and every step frame has exactly the
// size dist.StepFrameBytes gives for the node's shard — dense rows in the
// live epochs, k values per row once DropBack is frozen.
func checkDist(rep *report, what string, nodes [distWorld]distNode, total int, steps int) {
	for r, n := range nodes {
		checkTraining(rep, fmt.Sprintf("%s node %d", what, r), n.run.res, len(n.run.epochs))
	}
	rep.check(nodes[0].run.hash == nodes[1].run.hash, "%s: node hashes %016x and %016x differ",
		what, nodes[0].run.hash, nodes[1].run.hash)
	shard := batchSize / distWorld
	live := dist.StepFrameBytes(shard, total)
	frozen := dist.StepFrameBytes(shard, budget)
	for r, n := range nodes {
		n.conn.mu.Lock()
		frames := append([]int(nil), n.conn.frames...)
		n.conn.mu.Unlock()
		rep.check(len(frames) == (liveEpochs+frozenEpochs)*steps, "%s node %d: %d step frames, want %d",
			what, r, len(frames), (liveEpochs+frozenEpochs)*steps)
		bad := 0
		for i, b := range frames {
			want := live
			if i >= liveEpochs*steps {
				want = frozen
			}
			if b != want {
				bad++
			}
		}
		rep.check(bad == 0, "%s node %d: %d step frames differ from StepFrameBytes (%d B live, %d B frozen)",
			what, r, bad, live, frozen)
	}
}

// runDist runs the train-dist2 workload: train-dense's exact config split
// across two in-process nodes.
func runDist(o options) (*report, error) {
	rep := newReport()
	in, setup, err := timedSetup(trainSetups, func() (trainInputs, error) {
		in := makeTrainInputs(o.seed)
		for r := 0; r < distWorld; r++ {
			dropback.MNIST100100(in.modelSeed)
		}
		return in, nil
	})
	if err != nil {
		return nil, err
	}
	total := dropback.MNIST100100(in.modelSeed).Set.Total()
	steps := in.stepsPerEpoch()
	if o.trace {
		return traceDist(o, rep, in, total, steps)
	}

	heap := startHeapSampler()
	var runs [][distWorld]distNode
	for b := newRunBudget(o.seconds); b.more(); {
		nodes, err := distOnce(in, false, nil)
		if err != nil {
			heap.medianMiB()
			return nil, err
		}
		runs = append(runs, nodes)
		b.done(nodes[0].run.wall)
	}
	heapMiB := heap.medianMiB()

	var live, frozen []float64
	for i, nodes := range runs {
		checkDist(rep, fmt.Sprintf("run %d", i), nodes, total, steps)
		rep.check(nodes[0].run.hash == runs[0][0].run.hash, "run %d: parameter hash %016x differs from run 0's %016x",
			i, nodes[0].run.hash, runs[0][0].run.hash)
		r := nodes[0].run
		live = append(live, stepMS(r.live(), steps)...)
		frozen = append(frozen, stepMS(r.frozen(), steps)...)
	}
	rep.set("setup_s", setup)
	rep.set("throughput_per_s", runThroughput(live, frozen))
	rep.set("latency_ms.heavy", median(live))
	rep.set("latency_ms.light", median(frozen))
	rep.set("val_acc", runs[0][0].run.res.BestValAcc)
	rep.set("weight_bytes", float64(8*total))
	rep.set("heap_live_mb.p50", heapMiB)
	rep.note("%d two-node TrainE runs of %d live + %d frozen epochs x %d steps of %d samples", len(runs), liveEpochs, frozenEpochs, steps, batchSize)
	rep.note("train_samples_per_s.live %.1f  train_samples_per_s.frozen %.1f",
		batchSize*1000/median(live), batchSize*1000/median(frozen))
	rep.note("final parameter hash %016x", runs[0][0].run.hash)
	return rep, nil
}

// traceDist is the traced variant: an untraced run (frame sizes counted)
// and a run whose wrapped connections also time every blocked read
// alternate until the time is up.
func traceDist(o options, rep *report, in trainInputs, total, steps int) (*report, error) {
	tr := newTracer()
	var untraced, traced []float64
	var wire, wait, share [2][]float64 // live, frozen
	var eval []float64
	for b := newRunBudget(o.seconds); b.more(); {
		i := b.runs
		plain, err := distOnce(in, false, nil)
		if err != nil {
			return nil, err
		}
		checkDist(rep, fmt.Sprintf("untraced run %d", i), plain, total, steps)
		nodes, err := distOnce(in, true, tr)
		if err != nil {
			return nil, err
		}
		checkDist(rep, fmt.Sprintf("traced run %d", i), nodes, total, steps)
		rep.check(nodes[0].run.hash == plain[0].run.hash, "traced run %d: hash %016x differs from the untraced run's %016x",
			i, nodes[0].run.hash, plain[0].run.hash)
		untraced = append(untraced, plain[0].run.wall.Seconds())
		traced = append(traced, nodes[0].run.wall.Seconds())
		b.done(plain[0].run.wall + nodes[0].run.wall)

		for _, n := range nodes {
			prev := wireMark{}
			for e, mk := range n.marks {
				ph := 0
				if e >= liveEpochs {
					ph = 1
				}
				n.conn.mu.Lock()
				sent := 0
				for _, size := range n.conn.frames[prev.frames:mk.frames] {
					sent += size
				}
				n.conn.mu.Unlock()
				perStep := float64(mk.frames - prev.frames)
				w := mk.readWait - prev.readWait
				wire[ph] = append(wire[ph], float64(sent)/perStep)
				wait[ph] = append(wait[ph], ms(w)/perStep)
				share[ph] = append(share[ph], w.Seconds()/n.run.epochs[e].Seconds())
				prev = mk
			}
		}
		// TrainE's per-epoch validation pass cannot be timed from outside;
		// the same call on the same data costs the same on a fresh model.
		m := dropback.MNIST100100(in.modelSeed)
		start := time.Now()
		dropback.Evaluate(m, in.val, batchSize)
		eval = append(eval, ms(time.Since(start)))
		if i == 0 {
			rep.note("final parameter hash %016x (untraced and traced runs)", plain[0].run.hash)
		}
	}
	rep.set("nn.eval_ms", median(eval))
	rep.set("dist.wire_bytes_per_step.live", median(wire[0]))
	rep.set("dist.wire_bytes_per_step.frozen", median(wire[1]))
	rep.set("dist.read_wait_ms.live", median(wait[0]))
	rep.set("dist.read_wait_ms.frozen", median(wait[1]))
	rep.set("dist.exchange_share.live", median(share[0]))
	rep.set("dist.exchange_share.frozen", median(share[1]))
	rep.set("trace.wall_s", median(traced))
	rep.set("trace.overhead_s", median(traced)-median(untraced))
	rep.note("%d pairs of untraced (median %.3f s) and traced (median %.3f s) two-node runs", len(traced), median(untraced), median(traced))
	return rep, tr.write(o)
}
