package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"edgebench/internal/server"
	"edgebench/internal/tensor"
)

func TestSameBitsCatchesOneFlippedBit(t *testing.T) {
	want := []float32{0.1, -2.5, 3e-8, 1024}
	if !sameBits(append([]float32(nil), want...), want) {
		t.Fatal("identical outputs reported different")
	}
	for i := range want {
		for bit := 0; bit < 32; bit++ {
			got := append([]float32(nil), want...)
			got[i] = math.Float32frombits(math.Float32bits(got[i]) ^ 1<<bit)
			if sameBits(got, want) {
				t.Fatalf("flipping bit %d of output %d went unnoticed", bit, i)
			}
		}
	}
	if sameBits(want[:3], want) {
		t.Error("a short output was accepted")
	}
	// -0 == +0 as floats, but a served -0 where the reference has +0 was
	// computed differently.
	if sameBits([]float32{float32(math.Copysign(0, -1))}, []float32{0}) {
		t.Error("-0 accepted for +0")
	}
}

// TestJSONKeepsFloat32Bits is the premise of checking served outputs
// bitwise: the server's JSON encoding of a float32 decodes back to the
// same bits.
func TestJSONKeepsFloat32Bits(t *testing.T) {
	xs := inputFrames(tensor.Shape{4096}, 1, 7)[0].Data
	xs = append(xs, math.SmallestNonzeroFloat32, math.MaxFloat32, 1e-45, -3.4e38)
	raw, err := json.Marshal(server.InferResponse{Output: xs})
	if err != nil {
		t.Fatal(err)
	}
	var back server.InferResponse
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !sameBits(back.Output, xs) {
		t.Fatal("a float32 did not survive the JSON round trip")
	}
}

func TestHTTPCallerChecksEveryResponse(t *testing.T) {
	want := []float32{0.25, 0.5, 0.125}
	for _, tc := range []struct {
		name     string
		status   int
		output   []float32
		ok       bool
		mismatch bool
	}{
		{"exact", http.StatusOK, want, true, false},
		{"one flipped bit", http.StatusOK, []float32{0.25, math.Float32frombits(math.Float32bits(0.5) ^ 1), 0.125}, false, true},
		{"shed", http.StatusTooManyRequests, nil, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req server.InferRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Data) != 2 {
					http.Error(w, "bad request", http.StatusBadRequest)
					return
				}
				if tc.status != http.StatusOK {
					http.Error(w, "busy", tc.status)
					return
				}
				_ = json.NewEncoder(w).Encode(server.InferResponse{Output: tc.output, BatchSize: 1, TotalMs: 1})
			}))
			defer srv.Close()
			bodies, err := encodeRequests([]*tensor.Tensor{tensor.FromData([]float32{1, 2}, 2)})
			if err != nil {
				t.Fatal(err)
			}
			h := newHTTPCaller(srv.URL, 1, bodies, [][]float32{want})
			defer h.close()
			out := h.call(0, 0)
			if out.ok() != tc.ok || out.mismatch != tc.mismatch || out.status != tc.status {
				t.Errorf("outcome %+v; want ok=%v mismatch=%v status=%d", out, tc.ok, tc.mismatch, tc.status)
			}
			var tl tally
			tl.add(out)
			if wantFailed := !tc.ok; (tl.failed == 1) != wantFailed {
				t.Errorf("tally counted %d failed", tl.failed)
			}
		})
	}
}
