package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// A measurement window is a one-second warm-up followed by a fixed
// number of one-second phases. Workers file each operation under the
// phase it completed in. At every phase boundary the coordinator
// pauses the workers, runs the yardstick (see yardstick.go), reads
// counters while the system is quiet, and resumes them. Reporting the
// median over phases keeps a one-second stall caused by a neighbour on
// the machine from moving the result.
type window struct {
	phase  atomic.Int32 // -1 during warm-up, phases when over
	phases int
	paused atomic.Bool
	active atomic.Int64 // operations admitted and not yet finished

	starts, ends []time.Time // each phase's span
	ref          []float64   // yardstick rate at each boundary, ops/s

	// cpuOf, when set, reads the CPU time of the process under test;
	// cpuStart and cpuEnd hold it at each phase's start and end.
	cpuOf            func() (time.Duration, error)
	cpuStart, cpuEnd []time.Duration
	err              error // first cpuOf failure
}

func newWindow(phases int) *window {
	w := &window{phases: phases}
	w.phase.Store(-1)
	return w
}

// current returns the phase an operation completing now belongs to.
func (w *window) current() int { return int(w.phase.Load()) }

// enter admits one operation, waiting while the window is paused. It
// returns false once the window is over; otherwise the caller calls
// leave when the operation has finished.
func (w *window) enter() bool {
	for {
		w.active.Add(1)
		if !w.paused.Load() {
			if w.current() >= w.phases {
				w.active.Add(-1)
				return false
			}
			return true
		}
		w.active.Add(-1)
		for w.paused.Load() {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

func (w *window) leave() { w.active.Add(-1) }

// quiesce pauses the workers and waits for operations in flight.
func (w *window) quiesce() {
	w.paused.Store(true)
	for w.active.Load() != 0 {
		time.Sleep(20 * time.Microsecond)
	}
}

func (w *window) readCPU() time.Duration {
	if w.cpuOf == nil {
		return 0
	}
	c, err := w.cpuOf()
	if err != nil && w.err == nil {
		w.err = err
	}
	return c
}

// run sleeps through the warm-up and the phases. At boundary k (k ==
// phases: after the last phase) it runs the yardstick and calls at(k)
// with the workers paused.
func (w *window) run(at func(k int)) {
	time.Sleep(time.Second)
	for k := 0; k <= w.phases; k++ {
		w.quiesce()
		if k > 0 {
			w.ends = append(w.ends, time.Now())
			w.cpuEnd = append(w.cpuEnd, w.readCPU())
		}
		w.ref = append(w.ref, yardstick(yardstickBurst))
		w.phase.Store(int32(k))
		if at != nil {
			at(k)
		}
		if k < w.phases {
			w.cpuStart = append(w.cpuStart, w.readCPU())
			w.starts = append(w.starts, time.Now())
		}
		w.paused.Store(false)
		if k < w.phases {
			time.Sleep(time.Second)
		}
	}
}

// dur returns phase k's measured length in seconds.
func (w *window) dur(k int) float64 { return w.ends[k].Sub(w.starts[k]).Seconds() }

// hostFactor is the run's median yardstick rate over the nominal one:
// below 1 on a host slower than the reference machine's median.
func (w *window) hostFactor() float64 { return median(w.ref) / yardstickNominal }

// recorder is one worker's per-phase tally. Only its own worker writes
// it; the coordinator reads it after the worker has exited.
type recorder struct {
	ok   []int64   // verified operations per phase
	bad  []int64   // failed or mismatched operations per phase
	lat  [][]int64 // per-phase end-to-end latencies, ns
	span [][]int64 // per-phase timed layer calls, ns (traced phases only)
}

func newRecorder(phases int) *recorder {
	return &recorder{
		ok:   make([]int64, phases),
		bad:  make([]int64, phases),
		lat:  make([][]int64, phases),
		span: make([][]int64, phases),
	}
}

// add files one finished operation under phase k (ignored outside the
// measured phases).
func (r *recorder) add(k int, ok bool, latNs int64) {
	if k < 0 || k >= len(r.ok) {
		return
	}
	if ok {
		r.ok[k]++
		r.lat[k] = append(r.lat[k], latNs)
	} else {
		r.bad[k]++
	}
}

// addSpan files one timed layer call under phase k.
func (r *recorder) addSpan(k int, ns int64) {
	if k >= 0 && k < len(r.span) {
		r.span[k] = append(r.span[k], ns)
	}
}

// tally merges the workers' recorders.
type tally struct {
	ok, bad []int64
	lat     [][]int64 // sorted per phase
	span    [][]int64 // sorted per phase
}

func merge(phases int, rs []*recorder) tally {
	t := tally{ok: make([]int64, phases), bad: make([]int64, phases),
		lat: make([][]int64, phases), span: make([][]int64, phases)}
	for _, r := range rs {
		for k := 0; k < phases; k++ {
			t.ok[k] += r.ok[k]
			t.bad[k] += r.bad[k]
			t.lat[k] = append(t.lat[k], r.lat[k]...)
			t.span[k] = append(t.span[k], r.span[k]...)
		}
	}
	for k := 0; k < phases; k++ {
		sortInt64(t.lat[k])
		sortInt64(t.span[k])
	}
	return t
}

func (t tally) attempted() int64 { return sum(t.ok) + sum(t.bad) }
func (t tally) failed() int64    { return sum(t.bad) }

// figures are medians, over a set of phases, of the per-phase
// end-to-end numbers: verified ops/s, latency p50 and p99 in
// microseconds, and CPU microseconds per verified op. They are raw:
// set scales them to the nominal host speed.
type figures struct{ tput, p50, p99, cpuPerOp float64 }

// cpuPerOp is phase k's CPU microseconds per verified op (0 without a
// CPU reading).
func (t tally) cpuPerOp(w *window, k int) float64 {
	if w.cpuOf == nil || t.ok[k] == 0 {
		return 0
	}
	return float64(w.cpuEnd[k]-w.cpuStart[k]) / 1e3 / float64(t.ok[k])
}

func (t tally) e2e(w *window, phases []int) figures {
	var ts, a, b, c []float64
	for _, k := range phases {
		ts = append(ts, float64(t.ok[k])/w.dur(k))
		a = append(a, quantile(t.lat[k], 0.50)/1e3)
		b = append(b, quantile(t.lat[k], 0.99)/1e3)
		c = append(c, t.cpuPerOp(w, k))
	}
	return figures{median(ts), median(a), median(b), median(c)}
}

// set stores the figures as end-to-end metrics at the nominal host
// speed, h being the run's host factor.
func (f figures) set(m map[string]float64, h float64) {
	m["throughput_ops_s"] = f.tput / h
	m["latency_p50_us"] = f.p50 * h
	m["latency_p99_us"] = f.p99 * h
	m["cpu_us_per_op"] = f.cpuPerOp * h
}

// logPhases writes the raw per-phase figures, the yardstick rates and
// the host factor to standard error, so a run's drift over time can be
// read alongside its medians.
func (t tally) logPhases(w *window) {
	var b strings.Builder
	b.WriteString("perfbench: raw per-phase [ops/s p50-us p99-us cpu-us/op]:")
	for k := 0; k < w.phases; k++ {
		fmt.Fprintf(&b, " [%.0f %.1f %.0f %.2f]", float64(t.ok[k])/w.dur(k),
			quantile(t.lat[k], 0.5)/1e3, quantile(t.lat[k], 0.99)/1e3, t.cpuPerOp(w, k))
	}
	fmt.Fprintf(&b, "\nperfbench: yardstick ops/s at each boundary: %.0f\nperfbench: host factor %.4f", w.ref, w.hostFactor())
	fmt.Fprintln(os.Stderr, b.String())
}

// spanQuantile pools the timed layer calls of the given phases.
func (t tally) spanQuantile(phases []int, q float64) float64 {
	var all []int64
	for _, k := range phases {
		all = append(all, t.span[k]...)
	}
	sortInt64(all)
	return quantile(all, q)
}

// tracedPhase reports whether phase k of a run is traced: in a traced
// run the odd phases, so that traced and untraced phases interleave.
func tracedPhase(k int, trace bool) bool { return trace && k%2 == 1 }

// phaseSets splits the phases for a run into untraced and traced ones.
func phaseSets(phases int, trace bool) (plain, withSpans []int) {
	for k := 0; k < phases; k++ {
		if tracedPhase(k, trace) {
			withSpans = append(withSpans, k)
		} else {
			plain = append(plain, k)
		}
	}
	return plain, withSpans
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func sortInt64(xs []int64) { slices.Sort(xs) }

// quantile is the nearest-rank q-quantile of sorted samples (0 when
// there are none).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
