package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"edgebench/internal/cluster"
	"edgebench/internal/graph"
	"edgebench/internal/tensor"
)

// probeReps is how many timed repetitions each graph-layer probe takes;
// the probes report medians.
const probeReps = 5

// timeMedian runs f once untimed, then reps timed times, recording a
// span per timed call, and returns the median milliseconds.
func timeMedian(rec *recorder, name string, reps int, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		end := time.Now()
		rec.add(name, 0, 0, start, end, 1)
		times[i] = ms(end.Sub(start))
	}
	return median(times), nil
}

// probeGraph measures the graph and tensor layers of the served graph
// in isolation, one frame at a time, through graph.Executor alone.
// Each single-input conv, depthwise and dense node also runs on its
// own, as a one-node graph fed the activation it sees in the full
// forward, so the kernels' shares come from the program's own
// dispatch; the remainder of the forward is graph.other_ms.
func probeGraph(rec *recorder, g *graph.Graph, frames []*tensor.Tensor, batch int) (map[string]float64, error) {
	m := map[string]float64{}
	in := frames[0]

	ex := &graph.Executor{Pooled: true}
	runMs, err := timeMedian(rec, "graph.Run", probeReps, func() error { _, err := ex.Run(g, in); return err })
	if err != nil {
		return nil, err
	}
	m["graph.run_ms"] = runMs

	bex := &graph.Executor{Pooled: true}
	ins := frames[:min(batch, len(frames))]
	batchMs, err := timeMedian(rec, "graph.RunBatch", probeReps, func() error { _, err := bex.RunBatch(g, ins); return err })
	if err != nil {
		return nil, err
	}
	m["graph.run_batch_ms_per_frame"] = batchMs / float64(len(ins))

	m["graph.allocs_per_frame"] = testing.AllocsPerRun(probeReps, func() { _, _ = ex.Run(g, in) })
	plan, err := graph.PlanBuffers(g)
	if err != nil {
		return nil, err
	}
	m["graph.arena_mb"] = float64(plan.ArenaBytes()) / (1 << 20)

	one := &graph.Executor{Pooled: true}
	if _, err := one.Run(g, in); err != nil {
		return nil, err
	}
	i8, f32, fused := one.DispatchCounts()
	m["graph.dispatch.int8_per_frame"] = float64(i8)
	m["graph.dispatch.fp32_per_frame"] = float64(f32)
	m["graph.dispatch.fused_per_frame"] = float64(fused)
	m["graph.dispatch.prepacked_per_frame"] = float64(one.PrepackedDispatches())

	vals, err := (&graph.Executor{}).RunValues(g, in)
	if err != nil {
		return nil, err
	}
	var kernels, macs float64
	for _, key := range []string{"tensor.conv_fp32_ms", "tensor.conv_int8_ms", "tensor.depthwise_ms", "tensor.dense_ms"} {
		m[key] = 0
	}
	for _, n := range g.Nodes {
		macs += graph.NodeCost(n).MACs
		if len(n.Inputs) != 1 || (n.Kind != graph.OpConv2D && n.Kind != graph.OpDepthwiseConv2D && n.Kind != graph.OpDense) {
			continue
		}
		x, ok := vals[n.Inputs[0]]
		if !ok {
			return nil, fmt.Errorf("no value for the input of %s", n)
		}
		sub := graph.New("probe-"+n.Name, x.Shape...)
		cp := *n
		cp.Inputs = []*graph.Node{sub.Input}
		sub.Output = sub.Append(&cp)
		nex := &graph.Executor{Pooled: true}
		t, err := timeMedian(rec, "tensor."+n.Kind.String(), 3, func() error { _, err := nex.Run(sub, x); return err })
		if err != nil {
			return nil, fmt.Errorf("node %s alone: %w", n, err)
		}
		nI8, _, _ := nex.DispatchCounts()
		key := "tensor.dense_ms"
		switch {
		case n.Kind == graph.OpDepthwiseConv2D:
			key = "tensor.depthwise_ms"
		case n.Kind == graph.OpConv2D && nI8 > 0:
			key = "tensor.conv_int8_ms"
		case n.Kind == graph.OpConv2D:
			key = "tensor.conv_fp32_ms"
		}
		m[key] += t
		kernels += t
	}
	m["graph.other_ms"] = runMs - kernels
	m["tensor.macs_per_frame"] = macs
	m["tensor.gmacs_per_s"] = macs / (runMs / 1e3) / 1e9
	return m, nil
}

// probeFrameCodec times an AppendFrame + ReadFrame round trip of each
// tensor that crosses a stage boundary, in isolation, and returns the
// per-frame sum in microseconds.
func probeFrameCodec(rec *recorder, parts []*graph.Graph, in *tensor.Tensor) (float64, error) {
	var total float64
	x := in
	var buf []byte
	for i := 0; i < len(parts)-1; i++ {
		out, err := (&graph.Executor{}).Run(parts[i], x)
		if err != nil {
			return 0, fmt.Errorf("stage %d: %w", i, err)
		}
		x = out
		t, err := timeMedian(rec, "cluster.frame_codec", 50, func() error {
			enc, err := cluster.AppendFrame(buf[:0], cluster.TensorFrame(1, x))
			if err != nil {
				return err
			}
			buf = enc
			f, err := cluster.ReadFrame(bytes.NewReader(buf))
			if err != nil {
				return err
			}
			_, err = f.Tensor()
			return err
		})
		if err != nil {
			return 0, err
		}
		total += t * 1e3
	}
	return total, nil
}
