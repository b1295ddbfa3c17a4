package main

import (
	"fmt"
	"time"

	"edgebench/internal/opt"
	"edgebench/internal/server"
)

// weightSeed materializes every model's weights. It is fixed so that a
// change of --seed changes only the input frames.
const weightSeed = 11

// setupRepeats is how many times a run builds its deployment from
// scratch; setup_s is the median, and each deployment serves an equal
// share of the load.
const setupRepeats = 10

// front is how requests reach the served graph.
type front int

const (
	frontHTTP     front = iota // server.New over a serving.Engine
	frontPipeline              // server.New over a 3-stage cluster.Pipeline
	frontDirect                // serving.Engine.InferBatch, no HTTP
)

// phaseShares splits a run's --seconds between its load phases. An
// untraced run measures all of them; a traced run measures the nominal
// phase twice (without, then with spans) and skips the others.
type phaseShares struct {
	nominal, closed, ladder float64
}

// workload is one fixed deployment and traffic mix. Every rate, ladder
// rung and latency limit is a constant here, never derived at run time
// from the code under test, so two commits are driven identically.
type workload struct {
	name  string
	model string
	level opt.Level
	int8  bool
	front front
	// replicas sizes the serving.Engine pool (frontHTTP, frontDirect).
	replicas int
	// cfg is the HTTP front's batching configuration.
	cfg server.Config
	// frames is the number of distinct seeded input frames; requests
	// cycle through them.
	frames int
	// batch is the frames per InferBatch call (frontDirect) and the
	// batch size of the graph.RunBatch probe.
	batch int
	// conns is the number of open-loop connections; callers is the
	// number of closed-loop callers (connections, or InferBatch callers
	// offline).
	conns, callers int
	// nominal is the open-loop rate in requests/s, sent in bursts of
	// burst simultaneous requests; 0 makes the workload closed-loop.
	nominal float64
	burst   int
	// limit bounds latency_p95_ms on every ladder rung.
	limit time.Duration
	// ladder is the offered-rate ladder for max_rate_rps, in req/s.
	ladder []float64
	shares phaseShares
	// check is the traffic check: it fails the run when the workload
	// did not exercise what it exists to measure.
	check func(t traffic) error
}

// traffic is what a run observed, for the traffic checks.
type traffic struct {
	nominalBatchMean float64 // mean InferResponse.BatchSize, nominal phase
	int8PerFrame     float64 // int8 kernel dispatches per served frame
	framesSent       int     // frames sent to the deployment in all phases
	stageFramesOut   []uint64
}

var workloads = []*workload{
	{
		// One camera, single-batch inference: the paper's regime. At the
		// nominal rate consecutive frames do not overlap, so every batch
		// holds one request; the closed loop is one stream sending its
		// next frame as soon as the last returns. (Two streams of large
		// frames decode too unevenly to share the 2 ms batch window
		// reliably, which would make their throughput bimodal.)
		name: "mnv2-camera", model: "MobileNet-v2", level: opt.O2, front: frontHTTP,
		replicas: 2, cfg: server.Config{MaxBatch: 8, MaxWait: 2 * time.Millisecond},
		frames: 8, batch: 1, conns: 2, callers: 1,
		nominal: 4, burst: 1,
		shares: phaseShares{nominal: 0.6, closed: 0.4},
		check: func(t traffic) error {
			if t.nominalBatchMean > 1.1 {
				return fmt.Errorf("mean batch %.2f at the nominal rate, want about 1", t.nominalBatchMean)
			}
			return nil
		},
	},
	{
		// Small frames in bursts of two: the server path (JSON,
		// admission, the batch window) and batch folding at B=2 carry
		// most of the latency; kernel changes barely move it.
		name: "cifar-burst", model: "CifarNet", level: opt.O2, front: frontHTTP,
		replicas: 2, cfg: server.Config{MaxBatch: 8, MaxWait: 2 * time.Millisecond},
		frames: 64, batch: 2, conns: 2, callers: 2,
		nominal: 60, burst: 2, limit: 50 * time.Millisecond,
		ladder: []float64{80, 100, 120},
		shares: phaseShares{nominal: 0.4, closed: 0.3, ladder: 0.3},
		check: func(t traffic) error {
			if t.nominalBatchMean < 1.5 {
				return fmt.Errorf("mean batch %.2f at the nominal rate, want >= 1.5", t.nominalBatchMean)
			}
			return nil
		},
	},
	{
		// Offline video analytics: MobileNet-v2 at O1 then int8, as
		// `edgeserve -opt O1 -quantize int8` deploys it, fed 8-frame
		// batches by one closed-loop caller with no HTTP. O1 rather than
		// O2 because fused nodes keep FP32 kernels after quantization.
		name: "mnv2-int8-offline", model: "MobileNet-v2", level: opt.O1, int8: true, front: frontDirect,
		replicas: 2, frames: 16, batch: 8, callers: 1,
		shares: phaseShares{closed: 1},
		check: func(t traffic) error {
			if t.int8PerFrame <= 0 {
				return fmt.Errorf("no int8 kernel dispatches")
			}
			return nil
		},
	},
	{
		// The only workload through internal/cluster: CifarNet in three
		// consecutive stages on in-process workers over loopback TCP,
		// fronted by the HTTP server as `edgepipe run` does.
		name: "cifar-pipe3", model: "CifarNet", level: opt.O2, front: frontPipeline,
		cfg:    server.Config{MaxBatch: 4, MaxWait: 2 * time.Millisecond},
		frames: 64, batch: 2, conns: 2, callers: 2,
		nominal: 60, burst: 2, limit: 50 * time.Millisecond,
		ladder: []float64{80, 100, 120},
		shares: phaseShares{nominal: 0.4, closed: 0.3, ladder: 0.3},
		check: func(t traffic) error {
			for i, out := range t.stageFramesOut {
				if out != uint64(t.framesSent) {
					return fmt.Errorf("stage %d sent %d frames downstream, want %d", i, out, t.framesSent)
				}
			}
			return nil
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
