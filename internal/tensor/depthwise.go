package tensor

import "fmt"

// Depthwise convolution (the MobileNet depthwise-separable building
// block). One kernel body, depthwiseRows, serves both the plain and the
// epilogue-fused entry points. It splits every output row into a left
// border, an interior and a right border:
//
//   - Border columns have taps that fall outside the input. They run the
//     bounds-checked loop, which skips every out-of-range tap.
//   - Interior columns have all kw taps inside the row, so they run with
//     no per-tap range tests, over the valid kernel rows only.
//
// The 3×3 case (every depthwise layer in the model zoo) is unrolled: the
// interior of a row whose three input rows are in range keeps its nine
// weights in locals and runs the nine taps straight-line.
//
// Bit-exactness contract: every output starts from the bias and adds its
// in-range taps ky-major, kx-minor — the exact order of the plain direct
// loop — so the split changes no bits. Out-of-range taps are skipped,
// never multiplied by a zero pad: Inf*0 is NaN, and adding +0 turns a
// -0 sum into +0.

// DepthwiseConv2D applies one [KH, KW] filter per input channel.
// Weights are [C, KH, KW]; bias may be nil.
func DepthwiseConv2D(in, w *Tensor, bias []float32, spec Conv2DSpec) *Tensor {
	spec = spec.check()
	c := in.Shape[0]
	kh, kw := w.Shape[1], w.Shape[2]
	hout, wout := spec.OutDims(in.Shape[1], in.Shape[2], kh, kw)
	out := New(c, hout, wout)
	DepthwiseConv2DInto(out, in, w, bias, spec)
	return out
}

// DepthwiseConv2DInto computes the depthwise convolution into a
// preallocated dst of shape [C, Hout, Wout], overwriting every element.
// Above the MAC work threshold the channel×row tile space is sharded
// across the worker pool (per-tile writes are disjoint, so results are
// bitwise identical to serial); small layers stay on the caller.
func DepthwiseConv2DInto(dst, in, w *Tensor, bias []float32, spec Conv2DSpec) {
	DepthwiseConv2DFusedInto(dst, in, w, bias, spec, Epilogue{})
}

// DepthwiseConv2DFusedInto computes the depthwise convolution and
// applies the epilogue to each output row right after computing it,
// while the row is still cache-hot: one output traversal, same sharding
// policy as DepthwiseConv2DInto.
func DepthwiseConv2DFusedInto(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue) {
	spec = spec.check()
	c, h, wd := in.Shape[0], in.Shape[1], in.Shape[2]
	wc, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2]
	if c != wc {
		panic(fmt.Sprintf("tensor: DepthwiseConv2D channel mismatch: %v vs %v", in.Shape, w.Shape))
	}
	if bias != nil && len(bias) != c {
		panic("tensor: DepthwiseConv2D bias length mismatch")
	}
	hout, wout := spec.OutDims(h, wd, kh, kw)
	checkConvDst(dst, c, hout, wout)
	checkEpilogueChannels(epi, c)
	macsPerRow := kh * kw * wout
	if c*hout*macsPerRow < parallelThresholdMACs {
		depthwiseRows(dst, in, w, bias, spec, 0, c*hout, epi)
		return
	}
	parallelFor(c*hout, grainForMACs(macsPerRow), func(lo, hi int) {
		depthwiseRows(dst, in, w, bias, spec, lo, hi, epi)
	})
}

// depthwiseRows computes the flattened output-row tiles [lo, hi), where
// tile u covers output row (ic = u/hout, oy = u%hout), and applies epi
// to each row as soon as it is written. A shard may start or end
// mid-channel; each channel's plane, weights and bias are looked up once
// per channel the shard touches.
func depthwiseRows(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, lo, hi int, epi Epilogue) {
	g := newDWGeom(in, w, dst, spec)
	hout, wout := dst.Shape[1], dst.Shape[2]
	planeIn, planeW := g.h*g.wd, g.kh*g.kw
	fold := !epi.Empty()
	for u := lo; u < hi; {
		ic := u / hout
		oyLo, oyHi := u-ic*hout, min(hout, hi-ic*hout)
		var b float32
		if bias != nil {
			b = bias[ic]
		}
		plane := in.Data[ic*planeIn : (ic+1)*planeIn]
		wk := w.Data[ic*planeW : (ic+1)*planeW]
		for oy := oyLo; oy < oyHi; oy++ {
			drow := dst.Data[(ic*hout+oy)*wout : (ic*hout+oy+1)*wout]
			g.row(drow, plane, wk, b, oy)
			if fold {
				applyEpilogueSpan(drow, ic, epi)
			}
		}
		u += oyHi - oyLo
	}
}

// dwGeom is the per-call geometry of a depthwise convolution: input
// plane h×wd, kernel kh×kw, padding, stride, and the interior output
// columns [oxLo, oxHi) whose kw taps all fall inside an input row.
type dwGeom struct {
	h, wd, kh, kw, padH, padW, s int
	oxLo, oxHi                   int
}

func newDWGeom(in, w, dst *Tensor, spec Conv2DSpec) dwGeom {
	g := dwGeom{h: in.Shape[1], wd: in.Shape[2], kh: w.Shape[1], kw: w.Shape[2], s: spec.Stride}
	g.padH, g.padW = spec.padHW()
	g.oxLo, g.oxHi = interiorSpan(g.wd, g.kw, g.padW, g.s, dst.Shape[2])
	return g
}

// interiorSpan returns the output columns [oxLo, oxHi) whose kw taps all
// fall inside an input row of width wd: ox*s-padW >= 0 and
// ox*s-padW+kw <= wd. The span is clamped to [0, wout] and is empty
// (oxLo == oxHi) when no column qualifies.
func interiorSpan(wd, kw, padW, s, wout int) (oxLo, oxHi int) {
	oxLo = min((padW+s-1)/s, wout)
	if last := wd + padW - kw; last >= 0 {
		oxHi = min(last/s+1, wout)
	}
	return oxLo, max(oxHi, oxLo)
}

// row computes one output row: the border columns with the
// bounds-checked loop, the interior over the valid kernel rows only. A
// 3×3 row whose three input rows are all in range runs the unrolled
// interior.
func (g dwGeom) row(drow, plane, wk []float32, b float32, oy int) {
	iy0 := oy*g.s - g.padH
	kyLo, kyHi := max(0, -iy0), min(g.kh, g.h-iy0)
	g.border(drow, plane, wk, b, 0, g.oxLo, iy0, kyLo, kyHi)
	if g.kh == 3 && g.kw == 3 && kyLo == 0 && kyHi == 3 {
		interior3x3(drow[g.oxLo:g.oxHi], plane[iy0*g.wd:(iy0+3)*g.wd], wk, b, g.oxLo*g.s-g.padW, g.wd, g.s)
	} else {
		for ox := g.oxLo; ox < g.oxHi; ox++ {
			ix := ox*g.s - g.padW
			sum := b
			for ky := kyLo; ky < kyHi; ky++ {
				off := (iy0+ky)*g.wd + ix
				row := plane[off : off+g.kw]
				wr := wk[ky*g.kw : (ky+1)*g.kw]
				for kx, v := range row {
					sum += v * wr[kx]
				}
			}
			drow[ox] = sum
		}
	}
	g.border(drow, plane, wk, b, g.oxHi, len(drow), iy0, kyLo, kyHi)
}

// border computes output columns [oxFrom, oxTo) of one row over the
// valid kernel rows [kyLo, kyHi), skipping taps whose input column falls
// outside [0, wd).
func (g dwGeom) border(drow, plane, wk []float32, b float32, oxFrom, oxTo, iy0, kyLo, kyHi int) {
	for ox := oxFrom; ox < oxTo; ox++ {
		ix0 := ox*g.s - g.padW
		sum := b
		for ky := kyLo; ky < kyHi; ky++ {
			row := plane[(iy0+ky)*g.wd : (iy0+ky+1)*g.wd]
			wr := wk[ky*g.kw : (ky+1)*g.kw]
			for kx, wv := range wr {
				if ix := ix0 + kx; ix >= 0 && ix < g.wd {
					sum += row[ix] * wv
				}
			}
		}
		drow[ox] = sum
	}
}

// interior3x3 computes interior columns of a 3×3 row whose three input
// rows are all in range: rows holds them back to back, d[i] is the
// output whose taps start at input column ix0+i*s, and the nine weights
// live in locals for the whole row.
func interior3x3(d, rows, wk []float32, b float32, ix0, wd, s int) {
	r0, r1, r2 := rows[:wd], rows[wd:2*wd], rows[2*wd:3*wd]
	wk = wk[:9]
	w00, w01, w02 := wk[0], wk[1], wk[2]
	w10, w11, w12 := wk[3], wk[4], wk[5]
	w20, w21, w22 := wk[6], wk[7], wk[8]
	for i := range d {
		ix := ix0 + i*s
		a := r0[ix : ix+3 : ix+3]
		m := r1[ix : ix+3 : ix+3]
		c := r2[ix : ix+3 : ix+3]
		sum := b
		sum += a[0] * w00
		sum += a[1] * w01
		sum += a[2] * w02
		sum += m[0] * w10
		sum += m[1] * w11
		sum += m[2] * w12
		sum += c[0] * w20
		sum += c[1] * w21
		sum += c[2] * w22
		d[i] = sum
	}
}
