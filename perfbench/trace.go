package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgebench/internal/server"
	"edgebench/internal/tensor"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one request share Req; Parent links a
// span to the span that caused it.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Req     int64   `json:"req,omitempty"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	N       int     `json:"n,omitempty"` // frames the call carried
}

func (s span) dur() time.Duration {
	return time.Duration((s.EndUs - s.StartUs) * float64(time.Microsecond))
}

// recorder keeps spans in memory; write saves them when the run ends.
// A nil recorder records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a span and returns its id.
func (r *recorder) add(name string, parent, req int64, start, end time.Time, n int) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartUs: float64(start.Sub(r.epoch)) / float64(time.Microsecond),
		EndUs:   float64(end.Sub(r.epoch)) / float64(time.Microsecond),
		N:       n,
	})
	return id
}

// named returns the recorded spans called name, in recording order.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves the spans as JSON lines under dir.
func (r *recorder) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}

// timedEngine is the serving-layer probe: it implements server.Engine
// around a *serving.Engine or *cluster.Pipeline and records a span per
// InferBatch while a recorder is installed. With none installed it
// forwards at the cost of one atomic load.
type timedEngine struct {
	server.Engine
	rec atomic.Pointer[recorder]
}

func (t *timedEngine) InferBatch(ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	rec := t.rec.Load()
	if rec == nil {
		return t.Engine.InferBatch(ins)
	}
	start := time.Now()
	outs, err := t.Engine.InferBatch(ins)
	rec.add("serving.InferBatch", 0, 0, start, time.Now(), len(ins))
	return outs, err
}

// recordRequests turns a phase's samples into client spans: the wait
// for a free connection or the generator (scheduled to sent) and the
// request itself (sent to decoded response), sharing a request id.
func recordRequests(rec *recorder, phaseStart time.Time, ss []sample) {
	for i, s := range ss {
		req := int64(i + 1)
		id := rec.add("client.request", 0, req, phaseStart.Add(s.sent), phaseStart.Add(s.done), s.out.frames)
		if s.sent > s.sched {
			rec.add("client.wait", id, req, phaseStart.Add(s.sched), phaseStart.Add(s.sent), 0)
		}
	}
}

// busyRatio is the share of the window [from, to], in microseconds
// since the recorder's epoch, during which at least one span ran.
func busyRatio(spans []span, from, to float64) float64 {
	if to <= from {
		return 0
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartUs < sorted[j].StartUs })
	busy, reach := 0.0, from
	for _, s := range sorted {
		lo, hi := max(s.StartUs, reach), min(s.EndUs, to)
		if hi > lo {
			busy += hi - lo
			reach = hi
		}
	}
	return busy / (to - from)
}
