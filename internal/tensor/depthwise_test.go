package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The tuned depthwise kernel (interior/border split, unrolled 3×3
// interior, per-row epilogue) must reproduce the plain direct loop bit
// for bit. depthwiseRowsRef is that loop, kept here as the oracle; the
// table and fuzz tests compare the kernel against it followed by a
// separate Epilogue.ApplyInto sweep.

// depthwiseRowsRef computes the flattened output-row tiles [lo, hi)
// with the plain bounds-checked loop: bias first, then every in-range
// tap ky-major, kx-minor.
func depthwiseRowsRef(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, lo, hi int) {
	h, wd := in.Shape[1], in.Shape[2]
	kh, kw := w.Shape[1], w.Shape[2]
	padH, padW := spec.padHW()
	hout, wout := dst.Shape[1], dst.Shape[2]
	for u := lo; u < hi; u++ {
		ic, oy := u/hout, u%hout
		var b float32
		if bias != nil {
			b = bias[ic]
		}
		for ox := 0; ox < wout; ox++ {
			sum := b
			for ky := 0; ky < kh; ky++ {
				iy := oy*spec.Stride + ky - padH
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < kw; kx++ {
					ix := ox*spec.Stride + kx - padW
					if ix < 0 || ix >= wd {
						continue
					}
					sum += in.Data[(ic*h+iy)*wd+ix] * w.Data[(ic*kh+ky)*kw+kx]
				}
			}
			dst.Data[(ic*hout+oy)*wout+ox] = sum
		}
	}
}

// depthwiseRef is the oracle for a whole call: the reference loop over
// every row, then the epilogue as a separate whole-tensor sweep.
func depthwiseRef(in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue) *Tensor {
	spec = spec.check()
	hout, wout := spec.OutDims(in.Shape[1], in.Shape[2], w.Shape[1], w.Shape[2])
	out := New(in.Shape[0], hout, wout)
	depthwiseRowsRef(out, in, w, bias, spec, 0, in.Shape[0]*hout)
	epi.ApplyInto(out)
	return out
}

// sameFloat reports whether a and b carry identical bits, treating any
// two NaNs as equal: which operand's payload a NaN-on-NaN multiply or
// add propagates depends on the operand order the compiler picks for
// the (commutative) instruction, which is not part of the contract.
// Every non-NaN value, -0 included, must match exactly.
func sameFloat(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

func assertSameBits(t *testing.T, got, want *Tensor, what string) {
	t.Helper()
	if !got.Shape.Equal(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if !sameFloat(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: out[%d] = %v (%#08x), want %v (%#08x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// dwCase is one depthwise configuration for the differential tests.
type dwCase struct {
	c, h, w, kh, kw int
	spec            Conv2DSpec
	bias            bool
	epi             Epilogue
}

func (k dwCase) String() string {
	return fmt.Sprintf("c%d_%dx%d_k%dx%d_s%d_p%d,%d_bias%v_act%d_bn%v",
		k.c, k.h, k.w, k.kh, k.kw, k.spec.Stride, k.spec.PadH, k.spec.PadW, k.bias, k.epi.Act, len(k.epi.Scale) > 0)
}

// valid reports whether the configuration has a positive output size.
func (k dwCase) valid() bool {
	s := k.spec.check()
	return k.h+2*s.PadH >= k.kh && k.w+2*s.PadW >= k.kw
}

// tensors builds the case's input, weights and bias from seed, then
// plants specials (NaN, ±Inf, -0) at seed-chosen positions when asked.
func (k dwCase) tensors(seed int, specials bool) (in, w *Tensor, bias []float32) {
	in = New(k.c, k.h, k.w)
	w = New(k.c, k.kh, k.kw)
	fillPseudo(in.Data, seed)
	fillPseudo(w.Data, seed+1)
	if k.bias {
		bias = make([]float32, k.c)
		fillPseudo(bias, seed+2)
	}
	if specials {
		plantSpecials(in.Data, seed)
		plantSpecials(w.Data, seed+3)
		// Every channel also gets a +Inf weight, at a tap that moves
		// with the channel and the seed, so border outputs whose padded
		// tap carries it turn NaN unless that tap is skipped.
		taps := k.kh * k.kw
		for ic := 0; ic < k.c; ic++ {
			w.Data[ic*taps+(ic+seed)%taps] = float32(math.Inf(1))
		}
		if bias != nil {
			bias[0] = float32(math.Copysign(0, -1))
		}
	}
	return in, w, bias
}

// dwSpecials are the values whose arithmetic separates "skip the tap"
// from "multiply by a zero pad": Inf*0 is NaN, and -0 + +0 is +0.
var dwSpecials = []float32{
	float32(math.NaN()),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)),
}

func plantSpecials(data []float32, seed int) {
	if len(data) == 0 {
		return
	}
	for j, v := range dwSpecials {
		data[(seed*7+j*13)%len(data)] = v
	}
	// Element 0 is -0 too, so sums of zeros of either sign occur.
	data[0] = float32(math.Copysign(0, -1))
}

// runKernelShards runs the tuned kernel over [0, rows) split at cuts,
// on a dst prefilled with a sentinel so a skipped row shows.
func runKernelShards(in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue, cuts []int) *Tensor {
	spec = spec.check()
	hout, wout := spec.OutDims(in.Shape[1], in.Shape[2], w.Shape[1], w.Shape[2])
	dst := New(in.Shape[0], hout, wout)
	for i := range dst.Data {
		dst.Data[i] = 12345
	}
	rows := in.Shape[0] * hout
	lo := 0
	for _, c := range append(cuts, rows) {
		c = min(max(c, lo), rows)
		depthwiseRows(dst, in, w, bias, spec, lo, c, epi)
		lo = c
	}
	return dst
}

func dwEpilogue(c int, affine bool, act Act) Epilogue {
	epi := Epilogue{Act: act, Alpha: 0.1}
	if affine {
		_, _, _, _, _, bn := bnEpilogue(c, 5)
		epi.Scale, epi.Shift = bn.Scale, bn.Shift
	}
	return epi
}

// TestDepthwiseKernelMatchesReference sweeps kernel shapes, strides,
// per-axis pads, tiny inputs, bias and every epilogue activation
// through the exported entry points and through arbitrary row shards.
func TestDepthwiseKernelMatchesReference(t *testing.T) {
	kernels := [][2]int{{1, 1}, {3, 3}, {5, 5}, {3, 1}, {1, 3}}
	sizes := [][2]int{{1, 1}, {2, 3}, {3, 3}, {4, 7}, {8, 8}, {9, 5}}
	acts := []Act{ActNone, ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid, ActTanh}
	n := 0
	for _, kk := range kernels {
		for _, hw := range sizes {
			for stride := 1; stride <= 3; stride++ {
				for pad := 0; pad < 9; pad++ {
					for _, specials := range []bool{false, true} {
						k := dwCase{c: 3, h: hw[0], w: hw[1], kh: kk[0], kw: kk[1],
							spec: Conv2DSpec{Stride: stride, PadH: pad / 3, PadW: pad % 3, Asym: true}, bias: n%2 == 0}
						k.epi = dwEpilogue(k.c, n%3 != 0, acts[n%len(acts)])
						n++
						if !k.valid() {
							continue
						}
						in, w, bias := k.tensors(n, specials)
						want := depthwiseRef(in, w, bias, k.spec, k.epi)
						got := New(want.Shape...)
						DepthwiseConv2DFusedInto(got, in, w, bias, k.spec, k.epi)
						assertSameBits(t, got, want, "fused/"+k.String())
						if k.epi.Empty() {
							DepthwiseConv2DInto(got, in, w, bias, k.spec)
							assertSameBits(t, got, want, "plain/"+k.String())
						}
						rows := want.Shape[0] * want.Shape[1]
						shards := runKernelShards(in, w, bias, k.spec, k.epi, []int{rows / 3, rows/2 + 1})
						assertSameBits(t, shards, want, "shards/"+k.String())
					}
				}
			}
		}
	}
	if n < 1500 {
		t.Fatalf("only %d cases generated", n)
	}
}

// TestDepthwiseSkipsOutOfRangeTaps pins the border rule directly: a
// +Inf weight on a tap that falls in the padding must not poison the
// output (Inf*0 = NaN), and a -0 bias with only -0 products must stay
// -0 (adding a +0 pad product would flip it).
func TestDepthwiseSkipsOutOfRangeTaps(t *testing.T) {
	in := New(1, 3, 3)
	for i := range in.Data {
		in.Data[i] = 1
	}
	w := New(1, 3, 3)
	w.Data[0] = float32(math.Inf(1)) // top-left tap: in the padding for output (0,0)
	got := DepthwiseConv2D(in, w, nil, Conv2DSpec{Stride: 1, Pad: 1})
	if v := got.Data[0]; v != 0 {
		t.Fatalf("out[0,0] = %v, want 0: the padded +Inf tap was multiplied, not skipped", v)
	}

	negZero := float32(math.Copysign(0, -1))
	for i := range in.Data {
		in.Data[i] = negZero
	}
	for i := range w.Data {
		w.Data[i] = 1
	}
	got = DepthwiseConv2D(in, w, []float32{negZero}, Conv2DSpec{Stride: 1, Pad: 1})
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(negZero) {
			t.Fatalf("out[%d] = %v (%#08x), want -0", i, v, math.Float32bits(v))
		}
	}
}

// TestDepthwiseMobileNetV2Shapes runs the spatial configurations of
// MobileNet-v2's depthwise layers (input size and stride, 3×3, pad 1)
// with a few channels each, fused with an absorbed BN and ReLU6.
func TestDepthwiseMobileNetV2Shapes(t *testing.T) {
	for _, sh := range [][2]int{{112, 1}, {112, 2}, {56, 1}, {56, 2}, {28, 1}, {28, 2}, {14, 1}, {14, 2}, {7, 1}} {
		k := dwCase{c: 3, h: sh[0], w: sh[0], kh: 3, kw: 3,
			spec: Conv2DSpec{Stride: sh[1], Pad: 1}, bias: true, epi: dwEpilogue(3, true, ActReLU6)}
		in, w, bias := k.tensors(sh[0]+sh[1], false)
		want := depthwiseRef(in, w, bias, k.spec, k.epi)
		got := New(want.Shape...)
		DepthwiseConv2DFusedInto(got, in, w, bias, k.spec, k.epi)
		assertSameBits(t, got, want, k.String())
	}
}

// FuzzDepthwiseConv2D differentially fuzzes the tuned kernel against
// the reference loop over shapes, strides, pads, bias, epilogue,
// specials, and an arbitrary row shard [lo, hi) that may split a
// channel. The seed corpus runs under plain `go test`.
func FuzzDepthwiseConv2D(f *testing.F) {
	f.Add(uint8(2), uint8(5), uint8(6), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(2), true, true, true, uint16(3), uint16(7), 8)
	f.Add(uint8(1), uint8(1), uint8(1), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(0), false, false, true, uint16(0), uint16(1), 2)
	f.Add(uint8(3), uint8(8), uint8(8), uint8(5), uint8(5), uint8(2), uint8(2), uint8(2), uint8(4), true, true, false, uint16(5), uint16(9), 3)
	f.Add(uint8(2), uint8(7), uint8(4), uint8(3), uint8(1), uint8(3), uint8(0), uint8(0), uint8(3), false, true, true, uint16(1), uint16(4), 4)
	f.Add(uint8(4), uint8(2), uint8(2), uint8(1), uint8(1), uint8(2), uint8(2), uint8(1), uint8(5), true, false, true, uint16(2), uint16(11), 5)
	f.Add(uint8(2), uint8(9), uint8(3), uint8(3), uint8(3), uint8(2), uint8(0), uint8(1), uint8(1), true, true, true, uint16(0), uint16(100), 6)
	f.Fuzz(func(t *testing.T, c, h, w, kh, kw, stride, padH, padW, act uint8, hasBias, affine, specials bool, lo, hi uint16, seed int) {
		// in1 maps v onto 1..n, leaving values already in range as is.
		in1 := func(v uint8, n int) int { return int(v-1)%n + 1 }
		k := dwCase{
			c: in1(c, 4), h: in1(h, 12), w: in1(w, 12), kh: in1(kh, 5), kw: in1(kw, 5),
			spec: Conv2DSpec{Stride: in1(stride, 3), PadH: int(padH % 3), PadW: int(padW % 3), Asym: true},
			bias: hasBias,
		}
		k.epi = dwEpilogue(k.c, affine, Act(act%6))
		if !k.valid() {
			t.Skip()
		}
		if seed %= 1000; seed < 0 {
			seed = -seed
		}
		in, wt, bias := k.tensors(seed, specials)
		want := depthwiseRef(in, wt, bias, k.spec, k.epi)
		got := New(want.Shape...)
		DepthwiseConv2DFusedInto(got, in, wt, bias, k.spec, k.epi)
		assertSameBits(t, got, want, k.String())

		// One shard [lo, hi) must write exactly its rows.
		rows := want.Shape[0] * want.Shape[1]
		a, b := int(lo)%(rows+1), int(hi)%(rows+1)
		if a > b {
			a, b = b, a
		}
		const sentinel = 12345
		shard := New(want.Shape...)
		for i := range shard.Data {
			shard.Data[i] = sentinel
		}
		depthwiseRows(shard, in, wt, bias, k.spec.check(), a, b, k.epi)
		wout := want.Shape[2]
		for i := range shard.Data {
			if u := i / wout; u >= a && u < b {
				if !sameFloat(shard.Data[i], want.Data[i]) {
					t.Fatalf("%s shard [%d,%d): out[%d] = %v, want %v", k, a, b, i, shard.Data[i], want.Data[i])
				}
			} else if shard.Data[i] != sentinel {
				t.Fatalf("%s shard [%d,%d) wrote row %d outside it", k, a, b, u)
			}
		}
	})
}

// mnv2Depthwise lists MobileNet-v2's 17 depthwise layers as (channels,
// input height = width, stride); all are 3×3 with pad 1.
var mnv2Depthwise = [][3]int{
	{32, 112, 1}, {96, 112, 2}, {144, 56, 1}, {144, 56, 2},
	{192, 28, 1}, {192, 28, 1}, {192, 28, 2},
	{384, 14, 1}, {384, 14, 1}, {384, 14, 1}, {384, 14, 1},
	{576, 14, 1}, {576, 14, 1}, {576, 14, 2},
	{960, 7, 1}, {960, 7, 1}, {960, 7, 1},
}

// benchMNV2Depthwise times one pass over all 17 layers, each fused with
// an absorbed BN and ReLU6, through run.
func benchMNV2Depthwise(b *testing.B, run func(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue)) {
	type layer struct {
		dst, in, w *Tensor
		bias       []float32
		spec       Conv2DSpec
		epi        Epilogue
	}
	var layers []layer
	for i, l := range mnv2Depthwise {
		c, hw := l[0], l[1]
		spec := Conv2DSpec{Stride: l[2], Pad: 1}
		in, w := New(c, hw, hw), New(c, 3, 3)
		fillPseudo(in.Data, i)
		fillPseudo(w.Data, i+1)
		bias := make([]float32, c)
		hout := spec.OutDim(hw, 3)
		layers = append(layers, layer{New(c, hout, hout), in, w, bias, spec, dwEpilogue(c, true, ActReLU6)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range layers {
			run(l.dst, l.in, l.w, l.bias, l.spec, l.epi)
		}
	}
}

func BenchmarkDepthwiseMobileNetV2(b *testing.B) {
	benchMNV2Depthwise(b, DepthwiseConv2DFusedInto)
}

// BenchmarkDepthwiseMobileNetV2Ref is the same pass through the serial
// reference loop plus a separate epilogue sweep, for comparison.
func BenchmarkDepthwiseMobileNetV2Ref(b *testing.B) {
	benchMNV2Depthwise(b, func(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue) {
		depthwiseRowsRef(dst, in, w, bias, spec.check(), 0, dst.Shape[0]*dst.Shape[1])
		epi.ApplyInto(dst)
	})
}
