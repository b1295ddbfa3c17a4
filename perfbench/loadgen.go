package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"edgebench/internal/server"
	"edgebench/internal/tensor"
)

// outcome is what one operation returned.
type outcome struct {
	// status is the HTTP status, 200 for a direct call that returned
	// outputs, and 0 for a transport, protocol or engine error.
	status   int
	mismatch bool    // an output differs from its reference
	frames   int     // frames the operation carried
	batch    int     // micro-batch size the server reported
	serverMs float64 // server-side latency the server reported
}

func (o outcome) ok() bool { return o.status == http.StatusOK && !o.mismatch }

// sample is one timed operation. Times are offsets from the phase
// start; sched is when the schedule said to send, sent when the
// generator actually sent.
type sample struct {
	sched, sent, done time.Duration
	out               outcome
}

// latency runs from the scheduled send time, so a stall that delays
// later sends counts against them too.
func (s sample) latency() time.Duration { return s.done - s.sched }

// lateness is how far behind its schedule the generator sent.
func (s sample) lateness() time.Duration { return s.sent - s.sched }

// caller performs operation i on connection conn. Each connection is
// used by one goroutine at a time.
type caller interface {
	call(conn, i int) outcome
}

// phase is one load phase's samples, timed from start.
type phase struct {
	start   time.Time
	samples []sample
}

// openLoop sends bursts of burst requests at rate requests/s for dur,
// independent of completions, over conns connections: request i goes
// out on connection i mod conns at its tick. A connection still busy
// with its previous request sends late, and the lateness counts in the
// request's latency.
func openLoop(c caller, conns int, rate float64, burst int, dur time.Duration) phase {
	tick := time.Duration(float64(burst) / rate * float64(time.Second))
	n := max(int((dur+tick/2)/tick), 1) * burst // nearest whole tick
	ss := make([]sample, n)
	start := time.Now()
	var wg sync.WaitGroup
	for conn := 0; conn < conns; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := conn; i < n; i += conns {
				sched := time.Duration(i/burst) * tick
				if d := time.Until(start.Add(sched)); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				out := c.call(conn, i)
				ss[i] = sample{sched: sched, sent: sent, done: time.Since(start), out: out}
			}
		}()
	}
	wg.Wait()
	return phase{start: start, samples: ss}
}

// closedLoop runs rounds for dur: in each round every one of the
// callers sends one operation at once, and the next round starts when
// all have completed. Sending together keeps concurrent callers in the
// same batch window every round; free-running callers would drift
// between sharing a window and missing it from run to run.
func closedLoop(c caller, callers int, dur time.Duration) phase {
	ph := phase{start: time.Now()}
	round := make([]sample, callers)
	for i := 0; time.Since(ph.start) < dur; i += callers {
		sent := time.Since(ph.start)
		var wg sync.WaitGroup
		for k := range round {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := c.call(k, i+k)
				round[k] = sample{sched: sent, sent: sent, done: time.Since(ph.start), out: out}
			}()
		}
		wg.Wait()
		ph.samples = append(ph.samples, round...)
	}
	return ph
}

// framesPerSecond is the rate of correctly served frames over the span
// from the phase start to the last completion.
func framesPerSecond(ss []sample) float64 {
	return blocks{samples: ss, span: lastDone(ss)}.framesPerSecond()
}

func lastDone(ss []sample) time.Duration {
	var last time.Duration
	for _, s := range ss {
		last = max(last, s.done)
	}
	return last
}

// blocks pools the phases of one kind that a run interleaves with
// phases of another kind. Interleaving spreads each kind across the
// whole run, so a slow spell of the host (they last seconds here) falls
// on both kinds alike instead of on whichever phase it hits.
type blocks struct {
	samples []sample
	span    time.Duration // summed spans of the pooled phases
}

func (bl *blocks) add(ph phase) {
	bl.samples = append(bl.samples, ph.samples...)
	bl.span += lastDone(ph.samples)
}

// framesPerSecond is correctly served frames over the pooled span.
func (bl blocks) framesPerSecond() float64 {
	if bl.span <= 0 {
		return 0
	}
	var frames int
	for _, s := range bl.samples {
		if s.out.ok() {
			frames += s.out.frames
		}
	}
	return float64(frames) / bl.span.Seconds()
}

// httpCaller posts full-payload /infer requests over one keep-alive
// connection per caller and checks each response bitwise.
type httpCaller struct {
	url     string
	clients []*http.Client
	bodies  [][]byte    // pre-encoded request per frame
	want    [][]float32 // reference output per frame
}

// encodeRequests encodes one /infer request carrying each frame's full
// data.
func encodeRequests(frames []*tensor.Tensor) ([][]byte, error) {
	bodies := make([][]byte, len(frames))
	for i, f := range frames {
		body, err := json.Marshal(server.InferRequest{Data: f.Data})
		if err != nil {
			return nil, fmt.Errorf("encode request: %w", err)
		}
		bodies[i] = body
	}
	return bodies, nil
}

func newHTTPCaller(baseURL string, conns int, bodies [][]byte, want [][]float32) *httpCaller {
	h := &httpCaller{url: baseURL + "/infer", bodies: bodies, want: want}
	for i := 0; i < conns; i++ {
		h.clients = append(h.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		})
	}
	return h
}

func (h *httpCaller) call(conn, i int) outcome {
	f := i % len(h.bodies)
	out := outcome{frames: 1}
	resp, err := h.clients[conn].Post(h.url, "application/json", bytes.NewReader(h.bodies[f]))
	if err != nil {
		return out
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.status = resp.StatusCode
		return out
	}
	var r server.InferResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		return out
	}
	out.status = http.StatusOK
	out.mismatch = !sameBits(r.Output, h.want[f])
	out.batch = r.BatchSize
	out.serverMs = r.TotalMs
	return out
}

func (h *httpCaller) close() {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
}

// batchCaller calls InferBatch on fixed batches of frames in process.
type batchCaller struct {
	be      server.Backend
	batches [][]*tensor.Tensor
	want    [][][]float32 // per batch, per frame
}

func newBatchCaller(be server.Backend, frames []*tensor.Tensor, want [][]float32, size int) *batchCaller {
	b := &batchCaller{be: be}
	for lo := 0; lo+size <= len(frames); lo += size {
		b.batches = append(b.batches, frames[lo:lo+size])
		b.want = append(b.want, want[lo:lo+size])
	}
	return b
}

func (b *batchCaller) call(_, i int) outcome {
	k := i % len(b.batches)
	out := outcome{frames: len(b.batches[k])}
	outs, err := b.be.InferBatch(b.batches[k])
	if err != nil {
		return out
	}
	out.status = http.StatusOK
	out.batch = len(outs)
	for j, o := range outs {
		if o == nil || !sameBits(o.Data, b.want[k][j]) {
			out.mismatch = true
		}
	}
	return out
}
