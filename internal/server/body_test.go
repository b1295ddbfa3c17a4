package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/server"
	"edgebench/internal/tensor"
)

// shapeEngine is a stand-in engine with a given input shape that
// answers every frame with a 10-element zero output, so body-size tests
// can use full-size model inputs without running the model.
type shapeEngine struct{ shape tensor.Shape }

func (e shapeEngine) InferBatch(ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	outs := make([]*tensor.Tensor, len(ins))
	for i := range outs {
		outs[i] = tensor.New(10)
	}
	return outs, nil
}
func (e shapeEngine) InputShape() tensor.Shape                    { return e.shape }
func (e shapeEngine) ExecDType() string                           { return "fp32" }
func (e shapeEngine) WeightBytes() int64                          { return 0 }
func (e shapeEngine) DispatchCounts() (int8K, fp32K, fused int64) { return 0, 0, 0 }
func (e shapeEngine) Close() error                                { return nil }

// TestServerOversizedBodyIs413 sends a body past the limit, once with a
// declared Content-Length and once chunked (length unknown until read):
// both must get 413 and count as 413s, and the server must keep serving.
func TestServerOversizedBodyIs413(t *testing.T) {
	shape := tensor.Shape{3, 16, 16}
	srv := server.New(shapeEngine{shape: shape}, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	limit := server.MaxInferBody(shape)
	big := append([]byte(`{"data":[`), bytes.Repeat([]byte("1,"), int(limit))...)
	big = append(big, "1]}"...)

	for _, tc := range []struct {
		name string
		body io.Reader
	}{
		{"content-length", bytes.NewReader(big)},
		{"chunked", io.MultiReader(bytes.NewReader(big))},
	} {
		resp, err := http.Post(ts.URL+"/infer", "application/json", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", tc.name, resp.StatusCode)
		}
	}
	if got := srv.Metrics().Requests.Value("413"); got != 2 {
		t.Errorf("413 counter = %d, want 2", got)
	}
	if resp, _ := postInfer(t, ts.URL, server.InferRequest{Seed: 1}); resp.StatusCode != http.StatusOK {
		t.Errorf("after 413s: status %d, want 200", resp.StatusCode)
	}
}

// TestServerFullMobileNetFrameFits posts a full MobileNet-v2 input frame
// in Go's float32 JSON encoding, every element at the longest encoding
// a float32 gets (22 characters), and requires a 200: the body limit
// must never turn away a legitimate camera frame.
func TestServerFullMobileNetFrameFits(t *testing.T) {
	spec, ok := model.Get("MobileNet-v2")
	if !ok {
		t.Fatal("MobileNet-v2 missing from the zoo")
	}
	shape := spec.Build(nn.Options{}).Input.OutShape
	srv := server.New(shapeEngine{shape: shape}, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	frame := make([]float32, shape.NumElems())
	for i := range frame {
		frame[i] = -1.2345679e20
	}
	if enc, _ := json.Marshal(frame[0]); len(enc) != 22 {
		t.Fatalf("worst-case element encodes to %d bytes (%s), want 22", len(enc), enc)
	}
	body, err := json.Marshal(server.InferRequest{Data: frame})
	if err != nil {
		t.Fatal(err)
	}
	if limit := server.MaxInferBody(shape); int64(len(body)) > limit {
		t.Fatalf("frame body %d bytes exceeds the %d-byte limit", len(body), limit)
	}
	resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
}
