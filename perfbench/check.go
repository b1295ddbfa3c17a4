package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"edgebench/internal/graph"
	"edgebench/internal/tensor"
)

// inputFrames draws n input frames of the given shape, uniform in
// [-1, 1), from a PCG stream keyed on seed alone: the same seed gives
// the same frames on every commit.
func inputFrames(shape tensor.Shape, n int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	frames := make([]*tensor.Tensor, n)
	for i := range frames {
		t := tensor.New(shape...)
		for j := range t.Data {
			t.Data[j] = float32(rng.Float64()*2 - 1)
		}
		frames[i] = t
	}
	return frames
}

// references runs each frame through a sequential, unpooled executor
// on the served graph. The pooled, batch-folded, prepacked and
// pipelined paths all claim bitwise equality with this run.
func references(g *graph.Graph, frames []*tensor.Tensor) ([][]float32, error) {
	want := make([][]float32, len(frames))
	for i, f := range frames {
		out, err := (&graph.Executor{}).Run(g, f)
		if err != nil {
			return nil, fmt.Errorf("reference run of frame %d: %w", i, err)
		}
		want[i] = append([]float32(nil), out.Data...)
	}
	return want, nil
}

// sameBits reports whether got equals want bit for bit. JSON carries a
// float32 in its shortest 32-bit form, so a served value that decodes
// to a different bit pattern was computed differently.
func sameBits(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}
