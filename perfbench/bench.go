package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"edgebench/internal/graph"
	"edgebench/internal/tensor"
)

// blocksPerSetup is how many blocks of the nominal and closed-loop
// phases each set-up of an untraced run serves, alternating the two.
// Every set-up serves an equal share: a deployment's memory layout
// moves its speed by several percent, so the load is spread over
// setupRepeats of them.
const blocksPerSetup = 1

// traceDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const traceDir = ".bench_build/perfbench/traces"

// bench is one run of one workload.
type bench struct {
	w      *workload
	seed   int64
	dur    time.Duration
	traced bool
	log    io.Writer

	rec   *recorder // traced runs only
	tally tally
	// problems are failed checks; any makes the run incorrect.
	problems []string

	// Inputs, made once from the first set-up's graph.
	frames []*tensor.Tensor
	want   [][]float32
	bodies [][]byte // encoded /infer requests, HTTP fronts only

	// What the set-ups measured, pooled over all of them.
	nominal, closed blocks
	rungs           []rung
	resident        []float64
	values          map[string]float64
}

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.log, format+"\n", args...) }

func (b *bench) share(s float64) time.Duration { return time.Duration(s * float64(b.dur)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tickOf is the interval between bursts at an open-loop rate.
func tickOf(rate float64, burst int) time.Duration {
	return time.Duration(float64(burst) / rate * float64(time.Second))
}

func (b *bench) run() (*result, error) {
	w := b.w
	if b.traced {
		b.rec = newRecorder()
	}
	b.logf("perfbench workload %s seed %d seconds %.0f traced %v", w.name, b.seed, b.dur.Seconds(), b.traced)
	b.logf("provenance %s", newProvenance(b.seed))

	var setups []float64
	steps := map[string][]float64{}
	for i := 0; i < setupRepeats; i++ {
		d, err := deploy(w, b.rec)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d.setup.Seconds())
		for k, v := range d.steps {
			steps[k] = append(steps[k], v.Seconds())
		}
		err = b.serve(d, i, steps)
		if cerr := d.close(); err == nil && cerr != nil {
			err = fmt.Errorf("tear down set-up %d: %w", i+1, cerr)
		}
		if err != nil {
			return nil, err
		}
		runtime.GC()
	}

	if b.tally.mismatched > 0 {
		b.problems = append(b.problems, fmt.Sprintf("%d operations returned outputs that differ from the reference", b.tally.mismatched))
	}
	defs := perLayer
	if b.traced {
		path, err := b.rec.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, b.seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		b.logf("spans written to %s", path)
		for _, m := range perLayer {
			b.logf("%-36s %14.6g %s", m.name, b.values[m.name], m.unit)
		}
	} else {
		defs = endToEnd
		if err := b.endToEnd(setups); err != nil {
			return nil, err
		}
	}
	for _, p := range b.problems {
		b.logf("FAILED CHECK: %s", p)
	}
	metrics, err := collect(defs, b.values)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   len(b.problems) == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   metrics,
	}, nil
}

// prepare makes the input frames and their reference outputs from the
// first set-up's graph. Every set-up builds the same graph, so every
// one is checked against the same outputs.
func (b *bench) prepare(d *deployment) error {
	b.frames = inputFrames(d.g.Input.OutShape, b.w.frames, b.seed)
	if b.w.front == frontPipeline {
		// The stage workers prepack their subgraphs, so the reference
		// must run the same prepacked lowering (already applied by O2;
		// PrepackWeights is idempotent).
		graph.PrepackWeights(d.g)
	}
	var err error
	if b.want, err = references(d.g, b.frames); err != nil {
		return err
	}
	if b.w.front != frontDirect {
		if b.bodies, err = encodeRequests(b.frames); err != nil {
			return err
		}
	}
	// Memory is measured over serving alone: the reference runs are
	// returned to the OS and the peak is reset.
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// serve drives set-up i's share of the load and checks its traffic. An
// untraced run gives every set-up blocksPerSetup blocks of each phase
// and the last one the ladder; a traced run loads only the last.
func (b *bench) serve(d *deployment, i int, steps map[string][]float64) error {
	w := b.w
	last := i == setupRepeats-1
	if i == 0 {
		if err := b.prepare(d); err != nil {
			return err
		}
	}
	if b.traced && !last {
		return nil
	}
	var c caller
	if w.front == frontDirect {
		c = newBatchCaller(d.backend, b.frames, b.want, w.batch)
	} else {
		h := newHTTPCaller(d.url, max(w.conns, w.callers), b.bodies, b.want)
		defer h.close()
		c = h
	}
	i8Before, _, _ := d.backend.DispatchCounts()

	var served, nominal []sample
	if b.traced {
		var err error
		if b.values, served, err = b.tracedLoad(d, c, steps); err != nil {
			return err
		}
		nominal = served
	} else {
		perBlock := func(s float64) time.Duration { return b.share(s) / (setupRepeats * blocksPerSetup) }
		for k := 0; k < blocksPerSetup; k++ {
			if w.nominal > 0 {
				ph := openLoop(c, w.conns, w.nominal, w.burst, perBlock(w.shares.nominal))
				b.nominal.add(ph)
				nominal = append(nominal, ph.samples...)
				served = append(served, ph.samples...)
			}
			ph := closedLoop(c, w.callers, perBlock(w.shares.closed))
			b.closed.add(ph)
			served = append(served, ph.samples...)
		}
		if last {
			served = append(served, b.ladder(c)...)
		}
	}
	b.checkTraffic(d, i, served, nominal, i8Before)
	if !b.traced {
		if last {
			peak, err := procStatusMiB("VmHWM")
			if err != nil {
				return err
			}
			b.logf("mem_peak_mb      %.1f MiB (VmHWM while serving)", peak)
		}
		runtime.GC()
		debug.FreeOSMemory()
		rss, err := procStatusMiB("VmRSS")
		if err != nil {
			return err
		}
		b.resident = append(b.resident, rss)
	}
	return nil
}

// checkTraffic holds set-up i to what its workload claims to exercise,
// over the operations it served.
func (b *bench) checkTraffic(d *deployment, i int, served, nominal []sample, i8Before int64) {
	tr := traffic{}
	for _, s := range served {
		tr.framesSent += s.out.frames
	}
	var batches []float64
	for _, s := range nominal {
		batches = append(batches, float64(s.out.batch))
	}
	tr.nominalBatchMean = mean(batches)
	i8After, _, _ := d.backend.DispatchCounts()
	if tr.framesSent > 0 {
		tr.int8PerFrame = float64(i8After-i8Before) / float64(tr.framesSent)
	}
	if d.pipe != nil {
		tr.stageFramesOut = settledFramesOut(d, uint64(tr.framesSent))
	}
	b.logf("traffic, set-up %d: %d frames sent, nominal mean batch %.2f, int8 dispatches/frame %.1f, stage frames out %v",
		i+1, tr.framesSent, tr.nominalBatchMean, tr.int8PerFrame, tr.stageFramesOut)
	if err := b.w.check(tr); err != nil {
		b.problems = append(b.problems, fmt.Sprintf("traffic check, set-up %d: %v", i+1, err))
	}
}

// settledFramesOut polls the pipeline's per-stage frame counters until
// every stage has counted want frames or a second has passed. A stage
// counts a frame after forwarding it, so the last response can reach
// the client before the first stage has counted it.
func settledFramesOut(d *deployment, want uint64) []uint64 {
	deadline := time.Now().Add(time.Second)
	for {
		var outs []uint64
		settled := true
		for _, st := range d.pipe.StageStats() {
			outs = append(outs, st.FramesOut)
			settled = settled && st.FramesOut >= want
		}
		if settled || time.Now().After(deadline) {
			return outs
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ladder walks the workload's rate ladder upwards until a rung fails.
func (b *bench) ladder(c caller) []sample {
	w := b.w
	var served []sample
	for _, rate := range w.ladder {
		ph := openLoop(c, w.conns, rate, w.burst, b.share(w.shares.ladder)/time.Duration(len(w.ladder)))
		served = append(served, ph.samples...)
		b.observe(fmt.Sprintf("ladder %g/s", rate), ph.samples, framesPerSecond(ph.samples), 0)
		r := judgeRung(rate, w.burst, w.limit, ph.samples)
		b.rungs = append(b.rungs, r)
		verdict := "pass"
		if !r.pass {
			verdict = "FAIL: " + r.why
		}
		b.logf("rung %g req/s: p95 %.2f ms, achieved %.1f/s, lateness growth %.2f ms: %s",
			rate, r.p95Ms, r.achieved, ms(r.lateGrow), verdict)
		if !r.pass {
			break
		}
	}
	return served
}

// observe tallies a phase's samples and logs their summary with the
// rate they were served at. With tick > 0 it also holds the generator
// to its schedule: a p99 lateness beyond one tick means the open loop
// did not deliver its nominal rate, and the run is invalid.
func (b *bench) observe(label string, ss []sample, rate float64, tick time.Duration) {
	var lat, late []time.Duration
	var t tally
	var batches []float64
	for _, s := range ss {
		b.tally.add(s.out)
		t.add(s.out)
		lat = append(lat, s.latency())
		late = append(late, s.lateness())
		batches = append(batches, float64(s.out.batch))
	}
	ls := sortedMs(lat)
	p50, _ := percentile(ls, 0.5)
	q, tail, _ := tailPercentile(ls)
	lateP99, _ := percentile(sortedMs(late), 0.99)
	b.logf("phase %-12s %5d ops %3d failed  %8.2f frames/s  p50 %8.2f ms  tail p%.1f %8.2f ms  lateness p99 %6.2f ms  mean batch %.2f",
		label, t.attempted, t.failed, rate, p50, 100*q, tail, lateP99, mean(batches))
	if tick > 0 && lateP99 > ms(tick) {
		b.problems = append(b.problems, fmt.Sprintf("%s: generator lateness p99 %.2f ms exceeds one tick (%.2f ms)", label, lateP99, ms(tick)))
	}
}

// endToEnd computes the untraced run's metrics from what every set-up
// served and prints all seven end-to-end figures by name.
func (b *bench) endToEnd(setups []float64) error {
	w := b.w
	if w.nominal > 0 {
		b.observe("nominal", b.nominal.samples, b.nominal.framesPerSecond(), tickOf(w.nominal, w.burst))
	}
	b.observe("closed", b.closed.samples, b.closed.framesPerSecond(), 0)
	latPhase := b.nominal
	if w.nominal == 0 {
		latPhase = b.closed
	}
	var lat []time.Duration
	for _, s := range latPhase.samples {
		lat = append(lat, s.latency())
	}
	ls := sortedMs(lat)
	p50, _ := percentile(ls, 0.5)
	q, tail, ok := tailPercentile(ls)
	if !ok {
		return fmt.Errorf("%d latency samples, too few for a tail percentile", len(ls))
	}
	b.values = map[string]float64{
		"latency_p50_ms":  p50,
		"latency_tail_ms": tail,
		"throughput_fps":  b.closed.framesPerSecond(),
		"setup_s":         median(setups),
		"mem_resident_mb": median(b.resident),
	}

	b.logf("latency_p50_ms   %.4f ms (n=%d)", p50, len(ls))
	if p95, ok := percentile(ls, 0.95); ok {
		b.logf("latency_p95_ms   %.4f ms (n=%d)", p95, len(ls))
	} else {
		b.logf("latency_p95_ms   n/a (n=%d; p95 needs %d samples beyond it)", len(ls), minBeyond)
	}
	b.logf("latency_tail_ms  %.4f ms (p%.1f, n=%d)", tail, 100*q, len(ls))
	if len(w.ladder) > 0 {
		b.logf("max_rate_rps     %g req/s (ladder %v, p95 limit %v)", maxRate(b.rungs), w.ladder, w.limit)
	} else {
		b.logf("max_rate_rps     n/a (no rate ladder on this workload)")
	}
	b.logf("throughput_fps   %.4f frames/s (%d closed-loop callers)", b.values["throughput_fps"], w.callers)
	b.logf("fail_ratio       %g (%d of %d; by status %v)", b.tally.failRatio(), b.tally.failed, b.tally.attempted, b.tally.byStatus)
	b.logf("setup_s          %.4f s (median of %d: %s)", b.values["setup_s"], len(setups), fmtList(setups, "%.4f"))
	b.logf("mem_resident_mb  %.1f MiB (median over set-ups of VmRSS after serving and a collection: %s)",
		b.values["mem_resident_mb"], fmtList(b.resident, "%.1f"))
	return nil
}

func fmtList(xs []float64, format string) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	parts := make([]string, len(s))
	for i, x := range s {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
