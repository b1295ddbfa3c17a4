package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
// A percentile with fewer samples beyond it is mostly one outlier.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of quantile q in n
// sorted samples.
func rank(q float64, n int) int {
	k := int(math.Ceil(q * float64(n)))
	return min(max(k, 1), n)
}

// percentile returns the nearest-rank q-quantile of sorted samples and
// whether at least minBeyond samples lie above it. Medians are always
// reportable; a tail quantile is not until the sample is large enough
// (p95 needs 200 samples).
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	k := rank(q, n)
	return sorted[k-1], q <= 0.5 || n-k >= minBeyond
}

// tailPercentile returns the highest quantile, at most p95, that has at
// least minBeyond samples above it, with its value. ok is false when
// the sample has too few points for any tail.
func tailPercentile(sorted []float64) (q, v float64, ok bool) {
	n := len(sorted)
	if n <= minBeyond {
		return 0, math.NaN(), false
	}
	k := min(rank(0.95, n), n-minBeyond)
	return float64(k) / float64(n), sorted[k-1], true
}

// sortedMs returns the durations in milliseconds, ascending.
func sortedMs(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(xs)
	return xs
}

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

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 0.5)
	return v
}

// tally counts operations attempted and failed. A failure is a
// transport error, a non-200 response (429 shed and 504 deadline miss
// included) or an output that differs from the reference.
type tally struct {
	attempted, failed, mismatched int
	byStatus                      map[int]int
}

func (t *tally) add(r outcome) {
	t.attempted++
	if t.byStatus == nil {
		t.byStatus = map[int]int{}
	}
	t.byStatus[r.status]++
	if r.mismatch {
		t.mismatched++
	}
	if !r.ok() {
		t.failed++
	}
}

// failRatio is failed ÷ attempted (0 for no operations).
func (t tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// Backlog thresholds for a ladder rung.
const (
	// paceShare is the share of the offered rate completions must reach.
	paceShare = 0.95
	// lateGrowthTicks bounds how many tick intervals the generator may
	// fall further behind from the first to the last quarter of a rung.
	lateGrowthTicks = 1.0
)

// rung is the verdict on one offered rate of the ladder.
type rung struct {
	rate      float64
	n, failed int
	p95Ms     float64
	p95OK     bool
	achieved  float64       // completions per second
	lateGrow  time.Duration // mean lateness, last quarter minus first
	pass      bool
	why       string
}

// judgeRung decides whether an open-loop phase at rate (bursts of
// burst) met the latency limit with no failures and no growing
// backlog. A backlog shows as completions falling behind the offered
// rate, or as the generator's lateness (send time after scheduled time,
// which grows while every connection is busy) rising through the rung.
func judgeRung(rate float64, burst int, limit time.Duration, ss []sample) rung {
	r := rung{rate: rate, n: len(ss)}
	lat := make([]time.Duration, len(ss))
	var lastDone time.Duration
	for i, s := range ss {
		lat[i] = s.latency()
		lastDone = max(lastDone, s.done)
		if !s.out.ok() {
			r.failed++
		}
	}
	r.p95Ms, r.p95OK = percentile(sortedMs(lat), 0.95)
	if lastDone > 0 {
		r.achieved = float64(len(ss)-r.failed) / lastDone.Seconds()
	}
	r.lateGrow = lateGrowth(ss)
	tick := time.Duration(float64(burst) / rate * float64(time.Second))
	limitMs := float64(limit) / float64(time.Millisecond)
	switch {
	case r.failed > 0:
		r.why = fmt.Sprintf("%d of %d failed", r.failed, r.n)
	case !r.p95OK:
		r.why = fmt.Sprintf("%d samples, too few for p95", r.n)
	case r.p95Ms > limitMs:
		r.why = fmt.Sprintf("p95 %.1f ms > limit %.0f ms", r.p95Ms, limitMs)
	case r.achieved < paceShare*rate:
		r.why = fmt.Sprintf("completions %.1f/s behind offered %.0f/s", r.achieved, rate)
	case float64(r.lateGrow) > lateGrowthTicks*float64(tick):
		r.why = fmt.Sprintf("generator lateness grew %.1f ms", float64(r.lateGrow)/float64(time.Millisecond))
	default:
		r.pass = true
	}
	return r
}

// lateGrowth is the mean lateness of the last quarter of the samples
// (in schedule order) minus that of the first quarter.
func lateGrowth(ss []sample) time.Duration {
	q := len(ss) / 4
	if q == 0 {
		return 0
	}
	byTime := append([]sample(nil), ss...)
	sort.Slice(byTime, func(i, j int) bool { return byTime[i].sched < byTime[j].sched })
	meanLate := func(part []sample) time.Duration {
		var s time.Duration
		for _, x := range part {
			s += x.lateness()
		}
		return s / time.Duration(len(part))
	}
	return meanLate(byTime[len(byTime)-q:]) - meanLate(byTime[:q])
}

// maxRate is the highest rung of an ascending ladder that passes with
// every lower rung passing too; 0 when the first rung fails.
func maxRate(rungs []rung) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.pass {
			break
		}
		best = r.rate
	}
	return best
}
