package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// phaseSpec is one fixed-rate phase of an open-loop schedule.
type phaseSpec struct {
	name  string
	kind  int
	cycle int
	rate  float64 // requests per second
	dur   time.Duration
}

// openReq is one scheduled request and, once sent, its outcome. Latency is
// timed from the request's due time, so a stall in the generator or the
// server counts against every request it delays.
type openReq struct {
	phase  int
	offset time.Duration // due time after the schedule start
	tier   int
	input  int

	due  time.Time
	late time.Duration // how late the generator sent it
	done time.Time
	out  outcome
}

func (r *openReq) latency() time.Duration { return r.done.Sub(r.due) }

// outcome is how a request ended.
type outcome struct {
	ok      bool
	shed    bool // refused with an overload error
	err     error
	class   int
	version string
	batch   int
}

// schedule lays out every phase's requests at evenly spaced due times,
// drawing each request's tier from mix (shares summing to 1) and its input
// from [0, inputs), all from seed.
func schedule(phases []phaseSpec, mix []float64, inputs int, seed uint64) []openReq {
	rng := rand.New(rand.NewPCG(seed, 0x0be7))
	var reqs []openReq
	var base time.Duration
	for p, ph := range phases {
		n := int(ph.rate * ph.dur.Seconds())
		for i := 0; i < n; i++ {
			u, tier := rng.Float64(), 0
			for tier < len(mix)-1 && u >= mix[tier] {
				u -= mix[tier]
				tier++
			}
			reqs = append(reqs, openReq{
				phase:  p,
				offset: base + time.Duration(float64(i)/ph.rate*float64(time.Second)),
				tier:   tier,
				input:  rng.IntN(inputs),
			})
		}
		base += ph.dur
	}
	return reqs
}

// runOpenLoop sends every request at its due time, each on its own
// goroutine so a slow reply never delays the next send, and returns once
// every request has ended. current holds the index of the phase being sent;
// onPhase runs on the generator's goroutine as each phase begins.
func runOpenLoop(reqs []openReq, current *atomic.Int32, onPhase func(int), send func(*openReq) outcome) {
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	phase := -1
	for i := range reqs {
		r := &reqs[i]
		if r.phase != phase {
			phase = r.phase
			current.Store(int32(phase))
			onPhase(phase)
		}
		r.due = start.Add(r.offset)
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		r.late = time.Since(r.due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.out = send(r)
			r.done = time.Now()
		}()
	}
	wg.Wait()
}
