package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"edgebench/internal/server"
)

// tracedLoad is the traced run: the nominal phase twice, first with the
// serving-layer probe passing through and then recording, so the
// median difference is the tracing overhead; then the graph, tensor
// and cluster probes. Every per-layer metric comes back, 0 where the
// workload does not use the layer.
func (b *bench) tracedLoad(d *deployment, c caller, steps map[string][]float64) (map[string]float64, []sample, error) {
	w := b.w
	half := b.dur / 2
	var tick time.Duration
	phaseRun := func() phase {
		if w.nominal > 0 {
			return openLoop(c, w.conns, w.nominal, w.burst, half)
		}
		return closedLoop(c, w.callers, half)
	}
	if w.nominal > 0 {
		tick = tickOf(w.nominal, w.burst)
	}

	plain := phaseRun()
	b.observe("untraced", plain.samples, framesPerSecond(plain.samples), tick)
	var before, after map[string]float64
	var err error
	if d.srv != nil {
		if _, before, err = server.ScrapeMetrics(d.url); err != nil {
			return nil, nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d.timed.rec.Store(b.rec)
	traced := phaseRun()
	d.timed.rec.Store(nil)
	runtime.ReadMemStats(&m1)
	if d.srv != nil {
		if _, after, err = server.ScrapeMetrics(d.url); err != nil {
			return nil, nil, err
		}
	}
	b.observe("traced", traced.samples, framesPerSecond(traced.samples), tick)
	recordRequests(b.rec, traced.start, traced.samples)

	v := map[string]float64{}
	for _, m := range perLayer {
		v[m.name] = 0
	}
	ss := traced.samples
	var nFrames int
	var lat, late, plainLat []float64
	var lastDone time.Duration
	for _, s := range ss {
		nFrames += s.out.frames
		lat = append(lat, ms(s.latency()))
		late = append(late, ms(s.lateness()))
		lastDone = max(lastDone, s.done)
	}
	for _, s := range plain.samples {
		plainLat = append(plainLat, ms(s.latency()))
	}
	v["trace.overhead_ms"] = median(lat) - median(plainLat)
	v["process.alloc_kb_per_frame"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(nFrames)

	spans := b.rec.named("serving.InferBatch")
	var batchMs []float64
	var weighted, weight float64
	for _, s := range spans {
		x := ms(s.dur())
		batchMs = append(batchMs, x)
		weighted += x * float64(s.N)
		weight += float64(s.N)
	}
	if len(batchMs) == 0 {
		return nil, nil, fmt.Errorf("no serving.InferBatch spans recorded")
	}
	batchMean := weighted / weight // per frame, as each request sees it
	v["serving.batch_ms_p50"] = median(batchMs)
	from := float64(traced.start.Sub(b.rec.epoch)) / float64(time.Microsecond)
	v["serving.busy_ratio"] = busyRatio(spans, from, from+float64(lastDone)/float64(time.Microsecond))

	// The mean-based latency split: means, unlike medians, add up.
	meanLat, meanLate := mean(lat), mean(late)
	terms := []string{fmt.Sprintf("generator wait %.3f", meanLate)}
	rest := meanLat - meanLate - batchMean
	if d.srv != nil {
		var httpMs, sizes []float64
		for _, s := range ss {
			httpMs = append(httpMs, ms(s.done-s.sent)-s.out.serverMs)
			sizes = append(sizes, float64(s.out.batch))
		}
		delta := func(k string) float64 { return after[k] - before[k] }
		v["server.http_ms"] = mean(httpMs)
		if n := delta("edgeserve_queue_wait_seconds_count"); n > 0 {
			v["server.queue_wait_ms"] = delta("edgeserve_queue_wait_seconds_sum") / n * 1e3
		}
		v["server.batch_size_mean"] = mean(sizes)
		v["server.shed_ratio"] = delta("edgeserve_shed_total") / float64(len(ss))
		rest -= v["server.http_ms"] + v["server.queue_wait_ms"]
		terms = append(terms, fmt.Sprintf("server.http %.3f", v["server.http_ms"]),
			fmt.Sprintf("server.queue_wait %.3f", v["server.queue_wait_ms"]))
	}
	terms = append(terms, fmt.Sprintf("serving.batch %.3f", batchMean), fmt.Sprintf("unaccounted %.3f", rest))
	v["trace.unaccounted_ms"] = rest
	b.logf("mean latency split (ms): %.3f = %s (unaccounted %.1f%% of the mean)",
		meanLat, strings.Join(terms, " + "), 100*rest/meanLat)

	for key, step := range map[string]string{
		"model.build_s": "model.build", "opt.optimize_s": "opt.optimize", "opt.quantize_s": "opt.quantize",
		"verify.check_s": "verify.check", "serving.new_engine_s": "serving.new_engine",
		"serving.warmup_s": "serving.warmup", "cluster.connect_s": "cluster.connect",
	} {
		if xs := steps[step]; len(xs) > 0 {
			v[key] = median(xs)
		}
	}

	probed, err := probeGraph(b.rec, d.g, b.frames, w.batch)
	if err != nil {
		return nil, nil, fmt.Errorf("graph probe: %w", err)
	}
	for k, x := range probed {
		v[k] = x
	}

	if d.pipe != nil {
		stats := d.pipe.StageStats()
		var stageSum, bytesOut, stalls float64
		for i, st := range stats {
			v[fmt.Sprintf("cluster.stage%d.compute_ms_p50", i)] = st.P50Ms
			stageSum += st.P50Ms
			bytesOut += float64(st.BytesOut)
			stalls += float64(st.CreditStalls)
		}
		if through := float64(stats[0].FramesOut); through > 0 {
			v["cluster.bytes_per_frame"] = bytesOut / through
			v["cluster.credit_stalls_per_kframe"] = stalls / through * 1e3
		}
		v["cluster.hop_ms"] = v["serving.batch_ms_p50"] - stageSum
		if v["cluster.frame_codec_us"], err = probeFrameCodec(b.rec, d.parts, b.frames[0]); err != nil {
			return nil, nil, fmt.Errorf("frame codec probe: %w", err)
		}
	}
	return v, append(plain.samples, traced.samples...), nil
}
