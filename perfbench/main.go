// Command perfbench is the repository benchmark: it runs one named workload
// built from a seed, checks that the program's outputs are correct, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured through the
// root package's public API with no instrumentation. With -trace 1 the run
// times calls into each module from this package's own code and reports the
// per-layer metrics. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces: its output checks, the metrics
// of the requested kind, and human-readable detail lines printed before the
// JSON result.
type report struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	detail    []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// check records one output check; a false ok counts as a failure.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// set records one metric, whose unit comes from the metric tables.
func (r *report) set(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// note adds a human-readable detail line.
func (r *report) note(format string, args ...any) {
	r.detail = append(r.detail, fmt.Sprintf(format, args...))
}

// endToEnd lists the end-to-end metrics every untraced run reports, with
// their units. BENCHMARK.json declares the same names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms.heavy", "ms"},
	{"latency_ms.light", "ms"},
	{"val_acc", "fraction"},
	{"weight_bytes", "B"},
	{"heap_live_mb.p50", "MiB"},
}

// perLayer lists the per-layer metrics every traced run reports. A layer a
// workload leaves idle reads 0.
var perLayer = []struct{ name, unit string }{
	{"data.next_us", "us"},
	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"nn.eval_ms", "ms"},
	{"tensor.workspace_hit_frac", "fraction"},
	{"optim.sgd_us", "us"},
	{"core.apply_ms.live", "ms"},
	{"core.apply_ms.frozen", "ms"},
	{"core.regens_per_step", "count"},
	{"core.tracked_writes_per_step", "count"},
	{"core.swaps_per_step.live", "count"},
	{"core.tracked_apply_ms.live", "ms"},
	{"core.tracked_apply_ms.frozen", "ms"},
	{"core.densify_ms", "ms"},
	{"core.weight_state_frac", "fraction"},
	{"sparsenn.train_step_ms.live", "ms"},
	{"sparsenn.train_step_ms.frozen", "ms"},
	{"sparsenn.infer_us", "us"},
	{"sparsenn.rows_per_infer", "count"},
	{"sparsenn.ns_per_weight", "ns"},
	{"sparsenn.regens_per_row", "count"},
	{"sparsenn.tracked_reads_per_row", "count"},
	{"sparsenn.compile_ms", "ms"},
	{"serve.replica_busy_frac.low", "fraction"},
	{"serve.replica_busy_frac.mid", "fraction"},
	{"serve.replica_busy_frac.over", "fraction"},
	{"serve.batch_size.mid", "count"},
	{"serve.batch_size.over", "count"},
	{"serve.queue_depth.mid", "count"},
	{"serve.queue_depth.over", "count"},
	{"serve.shed_frac.interactive", "fraction"},
	{"serve.shed_frac.batch", "fraction"},
	{"serve.shed_frac.best-effort", "fraction"},
	{"serve.stats_us.p50", "us"},
	{"serve.stats_us.p99", "us"},
	{"serve.reload_ms", "ms"},
	{"serve.canary_promotions", "count"},
	{"serve.canary_rollbacks", "count"},
	{"serve.gen_late_ms.p99", "ms"},
	{"dist.wire_bytes_per_step.live", "B"},
	{"dist.wire_bytes_per_step.frozen", "B"},
	{"dist.read_wait_ms.live", "ms"},
	{"dist.read_wait_ms.frozen", "ms"},
	{"dist.exchange_share.live", "fraction"},
	{"dist.exchange_share.frozen", "fraction"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
}

func unitOf(name string) string {
	for _, tab := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range tab {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not declared")
}

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"train-dense":  func(o options) (*report, error) { return runTrain(o, modeDense) },
	"train-sparse": func(o options) (*report, error) { return runTrain(o, modeSparse) },
	"train-dist2":  runDist,
	"serve-sparse": runServe,
}

func main() {
	workload := flag.String("workload", "", "workload to run: train-dense, train-sparse, train-dist2 or serve-sparse")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	traceDir := flag.String("trace-dir", "", "directory the traced run writes its spans to (none if empty)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	// One process, at most two cores: the size the seed numbers in
	// README.md were measured at.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	start := time.Now()
	rep, err := run(options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, 0)
		}
	}
	if len(rep.metrics) != len(want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s reported %d metrics, want %d\n", *workload, len(rep.metrics), len(want))
		os.Exit(1)
	}

	fmt.Printf("workload %s seed %d trace %d: %.1f s\n", *workload, *seed, *trace, time.Since(start).Seconds())
	for _, d := range rep.detail {
		fmt.Println("  " + d)
	}
	for _, p := range rep.problems {
		fmt.Println("  FAILED CHECK: " + p)
	}
	fmt.Printf("  checks: %d attempted, %d failed (fail_frac %.4g)\n",
		rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}

	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, max(rep.attempted, 1), rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
