package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload:
// what a user of the deployment sees. Each is defined for all four
// workloads, so a change is held to the same set everywhere.
var endToEnd = []metricDef{
	// Median latency of one operation at the workload's nominal load:
	// an open-loop HTTP request from its scheduled send time to its
	// decoded response, or one 8-frame InferBatch call offline.
	{"latency_p50_ms", "ms"},
	// The highest percentile, at most p95, with at least ten samples
	// beyond it, over the same operations.
	{"latency_tail_ms", "ms"},
	// Frames served per second while closed-loop callers keep the
	// deployment busy: frames per round over the median round time.
	{"throughput_fps", "frames/s"},
	// Median wall time, over setupRepeats set-ups, from the model build
	// until the deployment serves.
	{"setup_s", "s"},
	// Resident set of the process once serving ends, with the
	// deployment still up and garbage collected and returned to the OS:
	// what the deployment holds (weights, packed panels, arenas,
	// buffers). The peak while serving (VmHWM) is printed beside it but
	// depends on when collections happen to run.
	{"mem_resident_mb", "MiB"},
}

// perLayer are the metrics a traced run reports. A layer a workload
// does not use reports 0 (no HTTP offline, no wire outside the
// pipeline, no int8 kernels on FP32 graphs).
var perLayer = []metricDef{
	{"server.http_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.batch_size_mean", "count"},
	{"server.shed_ratio", "ratio"},
	{"serving.batch_ms_p50", "ms"},
	{"serving.busy_ratio", "ratio"},
	{"serving.new_engine_s", "s"},
	{"serving.warmup_s", "s"},
	{"graph.run_ms", "ms"},
	{"graph.run_batch_ms_per_frame", "ms"},
	{"graph.allocs_per_frame", "count"},
	{"graph.arena_mb", "MiB"},
	{"graph.dispatch.int8_per_frame", "count"},
	{"graph.dispatch.fp32_per_frame", "count"},
	{"graph.dispatch.fused_per_frame", "count"},
	{"graph.dispatch.prepacked_per_frame", "count"},
	{"graph.other_ms", "ms"},
	{"tensor.conv_fp32_ms", "ms"},
	{"tensor.conv_int8_ms", "ms"},
	{"tensor.depthwise_ms", "ms"},
	{"tensor.dense_ms", "ms"},
	{"tensor.macs_per_frame", "count"},
	{"tensor.gmacs_per_s", "GMAC/s"},
	{"model.build_s", "s"},
	{"opt.optimize_s", "s"},
	{"opt.quantize_s", "s"},
	{"verify.check_s", "s"},
	{"cluster.connect_s", "s"},
	{"cluster.stage0.compute_ms_p50", "ms"},
	{"cluster.stage1.compute_ms_p50", "ms"},
	{"cluster.stage2.compute_ms_p50", "ms"},
	{"cluster.hop_ms", "ms"},
	{"cluster.bytes_per_frame", "bytes"},
	{"cluster.credit_stalls_per_kframe", "count"},
	{"cluster.frame_codec_us", "us"},
	{"process.alloc_kb_per_frame", "KiB"},
	{"trace.overhead_ms", "ms"},
	{"trace.unaccounted_ms", "ms"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// collect takes exactly the defined metrics from values; a missing or
// non-finite value is a benchmark bug.
func collect(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// provenance is printed with every result: the host and inputs a
// number was measured on.
type provenance struct {
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	LoadAvg    []float64 `json:"loadavg"`
	InputSeed  int64     `json:"input_seed"`
	WeightSeed int64     `json:"weight_seed"`
}

func newProvenance(seed int64) provenance {
	return provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		LoadAvg:    loadAvg(),
		InputSeed:  seed,
		WeightSeed: weightSeed,
	}
}

func (p provenance) String() string {
	b, _ := json.Marshal(p) // plain fields; cannot fail
	return string(b)
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// loadAvg returns the 1, 5 and 15 minute load averages, or nil where
// /proc/loadavg does not exist.
func loadAvg() []float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return nil
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 3 {
		return nil
	}
	var out []float64
	for _, f := range fields[:3] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// procStatusMiB reads a kB field of /proc/self/status, such as VmRSS
// or VmHWM, in MiB.
func procStatusMiB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == field+":" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}
