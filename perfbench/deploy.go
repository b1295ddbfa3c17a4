package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"edgebench/internal/cluster"
	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/partition"
	"edgebench/internal/server"
	"edgebench/internal/serving"
	"edgebench/internal/verify"
)

// stageWorker is one in-process cluster.Worker and its Run goroutine.
type stageWorker struct {
	cancel context.CancelFunc
	done   chan error
}

// deployment is one workload set up and ready to serve.
type deployment struct {
	w *workload
	// g is the served graph before any split; reference outputs come
	// from it.
	g *graph.Graph
	// parts are the pipeline's stage subgraphs (frontPipeline).
	parts []*graph.Graph
	eng   *serving.Engine
	pipe  *cluster.Pipeline
	// backend is what the server or the direct caller drives: eng or
	// pipe, wrapped by timed in a traced run.
	backend server.Engine
	timed   *timedEngine
	srv     *server.Server
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve returns
	url     string
	workers []stageWorker
	// setup is the wall time from the start of the model build until
	// the deployment could serve; steps splits it by layer call.
	setup time.Duration
	steps map[string]time.Duration
}

// deploy builds the workload's deployment through the public APIs:
// model.Spec.Build, opt.Optimize (and opt.QuantizeINT8), then
// serving.NewEngine and Warmup, or a 3-stage split on cluster workers
// joined by cluster.Connect; then server.New on a loopback listener.
// With a recorder (a traced run) each step is recorded as a span, and
// the deployment also times verify.Check on its own and wraps the
// backend in a timing layer; neither is part of an untraced setup.
func deploy(w *workload, rec *recorder) (d *deployment, err error) {
	spec, ok := model.Get(w.model)
	if !ok {
		return nil, fmt.Errorf("unknown model %q", w.model)
	}
	d = &deployment{w: w, steps: map[string]time.Duration{}}
	defer func() {
		if err != nil {
			_ = d.close()
			d = nil
		}
	}()
	step := func(name string, f func() error) error {
		t := time.Now()
		err := f()
		end := time.Now()
		d.steps[name] += end.Sub(t)
		rec.add("setup."+name, 0, 0, t, end, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	start := time.Now()
	_ = step("model.build", func() error {
		d.g = spec.Build(nn.Options{Materialize: true, Seed: weightSeed})
		d.g.Frozen = false
		return nil
	})
	if err := step("opt.optimize", func() error { _, err := opt.Optimize(d.g, w.level); return err }); err != nil {
		return d, err
	}
	if w.int8 {
		_ = step("opt.quantize", func() error { opt.QuantizeINT8(d.g); return nil })
	}
	if rec != nil {
		if err := step("verify.check", func() error { return verify.Err(verify.Check(d.g)) }); err != nil {
			return d, err
		}
	}
	switch w.front {
	case frontHTTP, frontDirect:
		if err := step("serving.new_engine", func() error {
			eng, err := serving.NewEngine(d.g, w.replicas)
			d.eng = eng
			return err
		}); err != nil {
			return d, err
		}
		if err := step("serving.warmup", d.eng.Warmup); err != nil {
			return d, err
		}
		d.backend = d.eng
	case frontPipeline:
		if err := d.connectPipeline(step); err != nil {
			return d, err
		}
		d.backend = d.pipe
	}
	if rec != nil {
		d.timed = &timedEngine{Engine: d.backend}
		d.backend = d.timed
	}
	if w.front != frontDirect {
		if err := step("server.listen", d.listen); err != nil {
			return d, err
		}
	}
	d.setup = time.Since(start)
	return d, nil
}

// connectPipeline cuts the graph into three consecutive stages, starts
// one in-process worker per stage on loopback and connects the chain,
// as `edgepipe run` does with local worker processes.
func (d *deployment) connectPipeline(step func(string, func() error) error) error {
	if err := step("partition.split", func() error {
		cuts := partition.CutPoints(d.g)
		if len(cuts) < 4 {
			return fmt.Errorf("%s admits only %d cuts", d.g.Name, len(cuts))
		}
		parts, err := partition.SplitN(d.g, cuts[len(cuts)/3], cuts[2*len(cuts)/3])
		if err != nil {
			return err
		}
		partition.CopyParams(d.g, parts...)
		d.parts = parts
		return nil
	}); err != nil {
		return err
	}
	stages := make([]cluster.Stage, len(d.parts))
	if err := step("cluster.start_workers", func() error {
		for i := range d.parts {
			wk, err := cluster.NewWorker("127.0.0.1:0")
			if err != nil {
				return err
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- wk.Run(ctx) }()
			d.workers = append(d.workers, stageWorker{cancel: cancel, done: done})
			stages[i] = cluster.Stage{Addr: wk.Addr(), Device: fmt.Sprintf("loopback-%d", i)}
		}
		return nil
	}); err != nil {
		return err
	}
	return step("cluster.connect", func() error {
		var err error
		d.pipe, err = cluster.Connect(d.parts, stages, cluster.Options{})
		return err
	})
}

// listen fronts the backend with the HTTP server on a loopback port and
// returns once /healthz answers.
func (d *deployment) listen() error {
	d.srv = server.New(d.backend, d.w.cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln)
	}()
	d.url = "http://" + ln.Addr().String()
	c := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	resp, err := c.Get(d.url + "/healthz")
	if err != nil {
		return err
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz returned %d", resp.StatusCode)
	}
	return nil
}

// close tears the deployment down and waits for every goroutine it
// started: the HTTP server, the engine or pipeline, and the workers.
func (d *deployment) close() error {
	var errs []error
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, d.hs.Shutdown(ctx))
		cancel()
		<-d.served
	}
	switch {
	case d.srv != nil:
		// Server.Close drains the batcher and closes the engine or
		// pipeline behind it.
		if err := d.srv.Close(); !errors.Is(err, cluster.ErrPipelineClosed) {
			errs = append(errs, err)
		}
	case d.pipe != nil:
		errs = append(errs, d.pipe.Close())
	case d.eng != nil:
		errs = append(errs, d.eng.Close())
	}
	for i, wk := range d.workers {
		wk.cancel()
		select {
		case err := <-wk.done:
			if err != nil && !errors.Is(err, context.Canceled) {
				errs = append(errs, fmt.Errorf("stage %d worker: %w", i, err))
			}
		case <-time.After(15 * time.Second):
			errs = append(errs, fmt.Errorf("stage %d worker did not stop", i))
		}
	}
	return errors.Join(errs...)
}
