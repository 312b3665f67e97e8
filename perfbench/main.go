// Command perfbench is the repository's benchmark. It assembles the
// dtmb-serve stack in process from the program's own constructors, drives
// it over loopback through the typed client in a closed loop, checks every
// output against independent answers, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload evaluate --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --selftest
//
// See README.md in this directory for the workloads, metrics and oracles.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// units gives every metric the benchmark can print its unit.
var units = map[string]string{
	"ops_per_s":          "1/s",
	"latency_p50_ms":     "ms",
	"latency_p90_ms":     "ms",
	"hit_latency_p50_ms": "ms",
	"cpu_ms_per_op":      "ms",
	"alloc_kb_per_op":    "KiB",
	"setup_s":            "s",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupWarmup is the number of stacks a run builds, untimed, before the
// timed ones: the first builds of a process pay for warming up.
// setupPerRound is the number it builds and times after every round.
const (
	setupWarmup   = 3
	setupPerRound = 16
)

// workloads maps each workload to whether it runs distributed, on the
// durable store.
var workloads = map[string]bool{
	"evaluate":          false,
	"sweep-jobs":        false,
	"sweep-distributed": true,
}

func main() {
	workload := flag.String("workload", "", "evaluate, sweep-jobs or sweep-distributed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measuring time of the closed loop")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	selftest := flag.Bool("selftest", false, "only check that each output check rejects doctored outputs")
	flag.Parse()

	if err := selfTest(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: self-test:", err)
		os.Exit(1)
	}
	if *selftest {
		fmt.Fprintln(os.Stderr, "perfbench: self-test passed")
		return
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload evaluate|sweep-jobs|sweep-distributed, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	res, errs := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err := os.RemoveAll(workDir); err != nil {
		errs = append(errs, err)
	}
	for i, err := range errs {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: … %d more\n", len(errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res == nil {
		os.Exit(1)
	}
	res.Correct = len(errs) == 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload. It returns nil when no result can be printed
// at all, and the list of failed checks otherwise.
func run(workload string, seed int64, dur time.Duration, traced bool) (*result, []error) {
	ctx := context.Background()
	distributed := workloads[workload]
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ss := &setupSampler{distributed: distributed}
	ss.sample(setupWarmup)
	ss.times = nil // the warm-up builds are not counted
	s, d, err := buildStack(distributed, tr)
	if err == nil {
		ss.times = append(ss.times, d.Seconds())
		ss.sample(setupPerRound)
		err = ss.err
	}
	if err != nil {
		if s != nil {
			s.stop()
		}
		return nil, []error{err}
	}
	defer s.stop()
	between := func() { ss.sample(setupPerRound) }
	tr.reset() // the workload's spans start here

	var before map[string]float64
	if traced {
		var err error
		if before, err = s.counters(ctx); err != nil {
			return nil, []error{err}
		}
	}

	o := newOracle()
	var e2e map[string]float64
	var failed, attempted int
	var errs []error
	var in ladderInput
	switch workload {
	case "evaluate":
		res := runEvaluate(ctx, s, seed, dur, between)
		attempted = len(res.ops)
		failed, errs = checkEvaluate(o, res)
		e2e = roundMedians(res.rounds)
		in = ladderInput{eval: &res}
	default:
		res := runSweeps(ctx, s, seed, dur, workload == "sweep-jobs", distributed, between)
		if res.err != nil {
			errs = append(errs, res.err)
		}
		attempted = len(res.jobs)
		var cerrs []error
		failed, cerrs = checkSweeps(ctx, o, res, distributed)
		errs = append(errs, cerrs...)
		e2e = roundMedians(res.rounds)
		in = ladderInput{sweeps: &res}
	}
	if err := s.workerError(); err != nil {
		errs = append(errs, err)
	}
	if ss.err != nil {
		errs = append(errs, ss.err)
	}
	e2e["setup_s"] = median(ss.times)

	out := &result{Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	if !traced {
		for name, v := range e2e {
			out.Metrics[name] = metricValue{Value: v, Unit: units[name]}
		}
		return out, errs
	}
	after, err := s.counters(ctx)
	if err != nil {
		return nil, append(errs, err)
	}
	// The ladder's CPU windows are process-wide: idle workers polling for
	// leases would count in them.
	s.haltWorkers()
	in.workload, in.stack, in.counters, in.e2e, in.tr = workload, s, delta(before, after), e2e, tr
	layers, err := ladder(ctx, in)
	if err != nil {
		return nil, append(errs, fmt.Errorf("ladder: %w", err))
	}
	for name, m := range layers {
		out.Metrics[name] = m
	}
	if err := writeSpans(tr, workload, seed); err != nil {
		errs = append(errs, err)
	}
	return out, errs
}

// traceDir receives the spans of traced runs, inside the checkout.
const traceDir = ".perfbench-traces"

// writeSpans writes every span of a traced run as JSON lines next to the
// benchmark's other outputs.
func writeSpans(tr *tracer, workload string, seed int64) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range tr.snapshot() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	return errors.Join(f.Sync(), f.Close())
}
