package main

import (
	"math"
	"net/http"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{n: 199, q: 0.95, want: 190, ok: false}, // 9 samples beyond
		{n: 200, q: 0.95, want: 190, ok: true},  // exactly 10 beyond
		{n: 1000, q: 0.99, want: 990, ok: true},
		{n: 999, q: 0.99, want: 990, ok: false},
		{n: 3, q: 0.5, want: 2, ok: true}, // a median is always reportable
	} {
		got, ok := percentile(ascending(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q, v  float64
		valid bool
	}{
		{n: 10, valid: false},
		{n: 11, q: 1.0 / 11, v: 1, valid: true},
		{n: 60, q: 50.0 / 60, v: 50, valid: true},
		{n: 200, q: 0.95, v: 190, valid: true},
		{n: 1000, q: 0.95, v: 950, valid: true}, // capped at p95
	} {
		q, v, ok := tailPercentile(ascending(tc.n))
		if ok != tc.valid || (ok && (math.Abs(q-tc.q) > 1e-12 || v != tc.v)) {
			t.Errorf("tailPercentile(n=%d) = p%g %g %v; want p%g %g %v", tc.n, q, v, ok, tc.q, tc.v, tc.valid)
		}
	}
}

// rungSamples builds an open-loop rung at rate/s, bursts of 1, where
// every request takes lat and request i is sent lateness(i) late.
func rungSamples(rate float64, n int, lat time.Duration, lateness func(i int) time.Duration, status int) []sample {
	tick := time.Duration(float64(time.Second) / rate)
	ss := make([]sample, n)
	for i := range ss {
		sched := time.Duration(i) * tick
		sent := sched + lateness(i)
		ss[i] = sample{sched: sched, sent: sent, done: sent + lat, out: outcome{status: status, frames: 1}}
	}
	return ss
}

func onTime(int) time.Duration { return 0 }

func TestJudgeRung(t *testing.T) {
	const ms50 = 50 * time.Millisecond
	if r := judgeRung(100, 1, ms50, rungSamples(100, 250, 10*time.Millisecond, onTime, http.StatusOK)); !r.pass {
		t.Fatalf("steady rung failed: %s", r.why)
	}
	shed := sample{sched: 2490 * time.Millisecond, sent: 2490 * time.Millisecond, done: 2491 * time.Millisecond,
		out: outcome{status: http.StatusTooManyRequests, frames: 1}}
	for _, tc := range []struct {
		name  string
		limit time.Duration
		ss    []sample
	}{
		{"over the limit", ms50, rungSamples(100, 250, 60*time.Millisecond, onTime, http.StatusOK)},
		{"too few for p95", ms50, rungSamples(100, 150, 10*time.Millisecond, onTime, http.StatusOK)},
		{"shed", ms50, append(rungSamples(100, 249, 10*time.Millisecond, onTime, http.StatusOK), shed)},
		// Every connection busy: each send slips 0.2 ms further behind,
		// while the time from send to response stays short.
		{"growing backlog", time.Second, rungSamples(100, 250, 5*time.Millisecond,
			func(i int) time.Duration { return time.Duration(i) * 200 * time.Microsecond }, http.StatusOK)},
		// Completions spread over twice the rung: half the offered rate.
		{"falling behind", 10 * time.Second, rungSamples(100, 250, 2500*time.Millisecond, onTime, http.StatusOK)},
	} {
		if r := judgeRung(100, 1, tc.limit, tc.ss); r.pass || r.why == "" {
			t.Errorf("%s: rung passed", tc.name)
		}
	}
}

func TestMaxRateStopsAtFirstFailure(t *testing.T) {
	rungs := []rung{{rate: 80, pass: true}, {rate: 90, pass: true}, {rate: 100}, {rate: 110, pass: true}}
	if got := maxRate(rungs); got != 90 {
		t.Errorf("maxRate = %g, want 90", got)
	}
	if got := maxRate([]rung{{rate: 80}}); got != 0 {
		t.Errorf("maxRate with a failing first rung = %g, want 0", got)
	}
}

// slowCaller serves every operation in a fixed time, like a saturated
// deployment.
type slowCaller struct{ d time.Duration }

func (s slowCaller) call(_, _ int) outcome {
	time.Sleep(s.d)
	return outcome{status: http.StatusOK, frames: 1}
}

func TestOpenLoopShowsBacklogPastCapacity(t *testing.T) {
	// Two connections at 10 ms per request hold 200/s.
	under := openLoop(slowCaller{10 * time.Millisecond}, 2, 100, 1, 2500*time.Millisecond)
	if r := judgeRung(100, 1, 50*time.Millisecond, under.samples); !r.pass {
		t.Errorf("100/s against 200/s of capacity failed: %s", r.why)
	}
	over := openLoop(slowCaller{10 * time.Millisecond}, 2, 400, 1, 600*time.Millisecond)
	r := judgeRung(400, 1, time.Second, over.samples)
	if r.pass || r.lateGrow <= 0 {
		t.Errorf("400/s against 200/s of capacity passed (lateness growth %v)", r.lateGrow)
	}
}

func TestFailRatioCountsEveryFailureKind(t *testing.T) {
	var tl tally
	for _, o := range []outcome{
		{status: http.StatusOK},
		{status: http.StatusOK},
		{status: http.StatusOK, mismatch: true},
		{status: http.StatusTooManyRequests},
		{status: http.StatusGatewayTimeout},
		{status: http.StatusServiceUnavailable},
		{status: 0}, // transport error
		{status: http.StatusOK},
	} {
		tl.add(o)
	}
	if tl.attempted != 8 || tl.failed != 5 || tl.mismatched != 1 {
		t.Fatalf("tally = %d attempted, %d failed, %d mismatched; want 8, 5, 1", tl.attempted, tl.failed, tl.mismatched)
	}
	if got := tl.failRatio(); got != 5.0/8 {
		t.Errorf("failRatio = %g, want %g", got, 5.0/8)
	}
	var empty tally
	if empty.failRatio() != 0 {
		t.Error("failRatio of no operations is not 0")
	}
}
