package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dropback"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// paramHash is the FNV-1a hash of the model's parameter bits: two runs
// that end with the same hash hold bit-identical weights.
func paramHash(m *dropback.Model) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range m.Set.Snapshot() {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// heapSampler samples the live Go heap (what the last collection found
// reachable) every few milliseconds from its own goroutine. The live heap
// changes only when a collection ends, so its level over time depends
// little on where in its cycle the collector happens to be; its highest
// samples do.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// medianMiB stops the sampler and returns the live heap the run stayed at
// or under for half of its samples, in MiB. A collection that ends while
// requests pile up leaves a higher level standing until the next one, for
// more than a tenth of a serve-sparse run in some runs but not others, so a
// higher percentile reads one of two levels.
func (h *heapSampler) medianMiB() float64 {
	close(h.stop)
	<-h.done
	return median(h.samples)
}

// runBudget paces a run's repetitions: another one starts only while one
// as long as the last still ends within the measured seconds. The first
// always runs.
type runBudget struct {
	deadline time.Time
	last     time.Duration
	runs     int
}

func newRunBudget(seconds float64) *runBudget {
	return &runBudget{deadline: time.Now().Add(time.Duration(seconds * float64(time.Second)))}
}

func (b *runBudget) more() bool { return b.runs == 0 || time.Now().Add(b.last).Before(b.deadline) }

// done records one finished repetition of the given length.
func (b *runBudget) done(d time.Duration) { b.runs, b.last = b.runs+1, d }

// timedSetup runs build n times and returns the last result with the
// median build time in seconds (setup_s); the last build is the one the run
// measures.
func timedSetup[T any](n int, build func() (T, error)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// spanRec is one traced call: its name, the phase it ran in, the step or
// request it belongs to, its parent span (0 for none) and its bounds in
// nanoseconds since the trace began.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Phase  string `json:"phase,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use, and a nil tracer records nothing.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a parent's id can be handed to its children
// before the parent span ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records span id, which ran from start to end.
func (t *tracer) add(id int64, name, phase string, group, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{
		ID: id, Parent: parent, Group: group, Name: name, Phase: phase,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// span records a span that started at start and ends now, returning its id.
func (t *tracer) span(name, phase string, group, parent int64, start time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.id()
	t.add(id, name, phase, group, parent, start, time.Now())
	return id
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// recordCost measures what recording one span costs, in seconds, on a
// scratch tracer. Where tracing cannot be switched off without changing
// the run's schedule, spans recorded times this cost is the overhead.
func (t *tracer) recordCost() float64 {
	const n = 20000
	scratch := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		scratch.add(scratch.id(), "cost", "", 0, 0, s, time.Now())
	}
	return time.Since(start).Seconds() / n
}

// durations returns the durations of every span with the given name and
// phase ("" matches any phase), in milliseconds.
func (t *tracer) durations(name, phase string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (phase == "" || s.Phase == phase) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines in o.traceDir, one file per
// workload, replacing the previous run's.
func (t *tracer) write(o options) error {
	if o.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	f, err := os.Create(filepath.Join(o.traceDir, o.workload+".jsonl"))
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
