package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the run's monotonic time base: every timestamp the benchmark
// keeps is nanoseconds since the run began.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// sleepUntil blocks the calling goroutine's thread until the clock
// reads t. On a 2-vCPU VM (Go 1.24) the runtime's timers woke a sleeper
// 0.5 ms late at the median, which would be charged to every open-loop
// request;
// nanosleep with the thread's timer slack lowered to 1 ns wakes within
// tens of microseconds. The thread is not locked: a locked goroutine
// pays a thread hand-off on every wake-up of the call it then makes.
func (c clock) sleepUntil(t int64) {
	const prSetTimerslack = 29
	for {
		d := t - c.now()
		if d <= 0 {
			return
		}
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil)
	}
}

// sample is one open-loop call: when it was due, when it was sent and
// when its answer arrived, on the run clock.
type sample struct {
	intended, sent, done int64
	failed               bool
}

// openResult is what an open-loop phase measured.
type openResult struct {
	samples  []sample
	rate     float64
	duration time.Duration
}

// openLoop sends count = rate x dur calls on a fixed schedule, call i
// due at start + i/rate, from senders goroutines. Each call is timed
// from its due time, so a stall charges every call it delays
// (no coordinated omission). call returns false when the call failed.
func openLoop(ctx context.Context, clk clock, rate float64, dur time.Duration, senders int, call func(sender, i int) bool) *openResult {
	count := int(rate * dur.Seconds())
	res := &openResult{samples: make([]sample, count), rate: rate, duration: dur}
	interval := float64(time.Second) / rate
	start := clk.now() + int64(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				due := start + int64(float64(i)*interval)
				clk.sleepUntil(due)
				sent := clk.now()
				ok := call(sender, i)
				res.samples[i] = sample{intended: due, sent: sent, done: clk.now(), failed: !ok}
			}
		}(s)
	}
	wg.Wait()
	if n := int(next.Load()); n < count {
		res.samples = res.samples[:n] // cancelled
	}
	return res
}

// latencies returns the call latencies from due time, in microseconds,
// of the calls that succeeded.
func (r *openResult) latencies() []float64 {
	out := make([]float64, 0, len(r.samples))
	for _, s := range r.samples {
		if !s.failed {
			out = append(out, float64(s.done-s.intended)/1e3)
		}
	}
	return out
}

// loadgenStats is the open-loop generator's own validity record.
type loadgenStats struct {
	offered, achieved float64 // calls per second scheduled and completed
	latenessP99       float64 // microseconds from due time to send
	calls             int
}

func (r *openResult) stats() loadgenStats {
	st := loadgenStats{offered: r.rate, calls: len(r.samples)}
	if len(r.samples) == 0 {
		return st
	}
	late := make([]float64, len(r.samples))
	first, last := r.samples[0].intended, int64(0)
	for i, s := range r.samples {
		late[i] = float64(s.sent-s.intended) / 1e3
		last = max(last, s.done)
	}
	st.latenessP99 = quantile(late, 0.99)
	if span := last - first; span > 0 {
		st.achieved = float64(len(r.samples)) / (float64(span) / 1e9)
	}
	return st
}

// behind reports why a phase's generator fell behind its schedule, or
// "" when it kept up: the completed rate must stay within 10% of the
// offered one, or the latencies describe a different load.
func (st loadgenStats) behind() string {
	if st.calls > 0 && st.achieved < 0.9*st.offered {
		return "achieved rate below 90% of the offered rate"
	}
	return ""
}

// closedLoop runs clients goroutines that each send their next call as
// soon as the previous one returns, for dur. call returns the answers
// the call delivered and whether it succeeded; i numbers calls across
// clients. Besides the totals it returns the answer rate of each of
// tailWindows equal slices of the phase.
func closedLoop(ctx context.Context, clients int, dur time.Duration, call func(client, i int) (answers int, ok bool)) (answers, calls, failed int64, rates []float64) {
	var next, fails atomic.Int64
	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()
	start := time.Now()
	slice := dur / tailWindows
	perWindow := make([][tailWindows]int64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				n, ok := call(c, int(next.Add(1)-1))
				if !ok {
					fails.Add(1)
					continue
				}
				if w := int(time.Since(start) / slice); w < tailWindows {
					perWindow[c][w] += int64(n)
				}
			}
		}(c)
	}
	wg.Wait()
	for w := 0; w < tailWindows; w++ {
		var n int64
		for c := range perWindow {
			n += perWindow[c][w]
		}
		answers += n
		rates = append(rates, float64(n)/slice.Seconds())
	}
	return answers, next.Load(), fails.Load(), rates
}

// tailWindows is how many consecutive slices a phase is cut into for
// its tail percentiles and its capacity, which are reported as the
// median over the slices. One stall of a shared machine then moves one
// slice, not the reported figure.
const tailWindows = 5

// windowedQuantile is the median over tailWindows consecutive slices of
// xs (in time order) of each slice's q-quantile. xs is not modified.
func windowedQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n < tailWindows {
		return quantile(append([]float64(nil), xs...), q)
	}
	per := make([]float64, 0, tailWindows)
	for w := 0; w < tailWindows; w++ {
		per = append(per, quantile(append([]float64(nil), xs[w*n/tailWindows:(w+1)*n/tailWindows]...), q))
	}
	return median(per)
}

// quantile is the q-quantile of xs by linear interpolation (xs is
// sorted in place). An empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
