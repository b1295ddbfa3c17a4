// Command perfbench is edgebench's end-to-end serving benchmark. One run
// sets up one workload in-process through the public APIs (model build,
// graph optimization, serving engine, HTTP front or cluster pipeline),
// drives it from its own load generator over at most NumCPU
// connections, checks every output bitwise against a sequential
// reference run, and prints the workload's metrics.
//
// Usage, from the repository root (run.sh builds this package first):
//
//	bash perfbench/run.sh --workload cifar-burst --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer metrics, taken by timing calls into each
// layer from this package, and writes its spans under
// .bench_build/perfbench/traces. The last line of standard output is
// one JSON object:
//
//	{"correct":true,"attempted":1460,"failed":0,"metrics":{"latency_p50_ms":{"value":10.2,"unit":"ms"},...}}
//
// The run exits nonzero when an output differs from its reference, a
// traffic check fails or the generator ran too late to hold its
// schedule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the input frames")
	seconds := fs.Int("seconds", 25, "seconds of measured load")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	b := &bench{
		w:      w,
		seed:   *seed,
		dur:    time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		log:    stdout,
	}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
