package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"strings"
	"time"

	"dmfb/internal/core"
	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/reconfig"
	"dmfb/internal/service"
	"dmfb/internal/sqgrid"
	"dmfb/internal/sweep"
	"dmfb/internal/telemetry"
)

// ladderInput is what the traced pass hands the ladder: the workload's
// inputs and outputs, its counter deltas and its end-to-end numbers.
type ladderInput struct {
	workload string
	stack    *stack
	counters map[string]float64
	e2e      map[string]float64
	tr       *tracer
	eval     *evalResult
	sweeps   *sweepResult
}

// layerUnits gives every per-layer metric its unit.
var layerUnits = map[string]string{
	"yieldsim.trials":             "count",
	"yieldsim.trials_per_cpu_s":   "1/s",
	"yieldsim.parallel_speedup":   "ratio",
	"yieldsim.chunk_ms":           "ms",
	"yieldsim.early_stops":        "count",
	"yieldsim.adaptive_runs_mean": "count",
	"defects.inject_ns_per_trial": "ns",
	"defects.all_healthy_ratio":   "ratio",
	"reconfig.feasible_ns":        "ns",
	"reconfig.memo_hit_ratio":     "ratio",
	"reconfig.session_setup_us":   "us",
	"matching.solve_ns":           "ns",
	"matching.calls":              "count",
	"layout.build_ms":             "ms",
	"layout.build_share":          "ratio",
	"sweep.order_us_per_point":    "us",
	"sweep.plan_ms":               "ms",
	"service.engine_ms":           "ms",
	"service.hit_us":              "us",
	"service.request_overhead_us": "us",
	"service.cache_hit_ratio":     "ratio",
	"service.admission_wait_ms":   "ms",
	"service.record_encode_us":    "us",
	"service.store_append_us":     "us",
	"service.job_create_ms":       "ms",
	"client.stream_decode_us":     "us",
	"dispatch.lease_ms":           "ms",
	"dispatch.submit_ms":          "ms",
	"dispatch.empty_leases":       "count",
	"dispatch.worker_busy_share":  "ratio",
	"dispatch.shards_leased":      "count",
	"dispatch.shards_expired":     "count",
	"dispatch.shard_ms":           "ms",
	"telemetry.kernel_overhead":   "ratio",
	"runtime.gc_cpu_share":        "ratio",
	"share.yieldsim":              "ratio",
	"share.defects":               "ratio",
	"share.reconfig":              "ratio",
	"share.matching":              "ratio",
	"share.layout":                "ratio",
	"share.sweep":                 "ratio",
	"share.service":               "ratio",
	"share.client":                "ratio",
	"share.telemetry":             "ratio",
	"share.runtime":               "ratio",
	"share.unattributed":          "ratio",
	"trace.spans":                 "count",
	"trace.span_cost_ns":          "ns",
	"trace.overhead_share":        "ratio",
	"traced.ops_per_s":            "1/s",
	"traced.latency_p50_ms":       "ms",
	"traced.latency_p90_ms":       "ms",
	"traced.hit_latency_p50_ms":   "ms",
	"traced.cpu_ms_per_op":        "ms",
	"traced.alloc_kb_per_op":      "KiB",
}

// replaySample is the number of the workload's first-time Monte-Carlo
// scenarios the ladder replays through the kernel and the engine, and
// probeSample the number it probes with one 64-trial batch of injection and
// feasibility. Both are spread evenly over the workload's order, so they
// follow its mix.
const (
	replaySample = 24
	probeSample  = 400
)

// spread picks up to k items evenly spaced over xs.
func spread[T any](xs []T, k int) []T {
	if len(xs) <= k {
		return xs
	}
	out := make([]T, k)
	for i := range out {
		out[i] = xs[i*len(xs)/k]
	}
	return out
}

// ladder times calls into each layer's exported functions on the
// workload's own inputs, folds in the counters the traced run read from
// /metrics and the workers' registries, and estimates each layer's share
// of the workload's CPU as calls × cost per call ÷ CPU.
func ladder(ctx context.Context, in ladderInput) (map[string]metricValue, error) {
	m := make(map[string]float64)
	spans := len(in.tr.snapshot()) // the workload's own, before the ladder adds its
	c := in.counters
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	trials := c["dmfb_kernel_trials_total"]
	m["yieldsim.trials"] = trials
	m["yieldsim.chunk_ms"] = 1000 * ratio(c["dmfb_kernel_chunk_duration_seconds_sum"], c["dmfb_kernel_chunk_duration_seconds_count"])
	m["yieldsim.early_stops"] = c["dmfb_kernel_early_stops_total"]
	m["yieldsim.adaptive_runs_mean"] = ratio(c["dmfb_kernel_realized_runs_sum"], c["dmfb_kernel_realized_runs_count"])
	m["defects.all_healthy_ratio"] = ratio(c["dmfb_kernel_trials_all_healthy_total"], trials)
	hits, misses := c["dmfb_kernel_memo_hits_total"], c["dmfb_kernel_memo_misses_total"]
	m["reconfig.memo_hit_ratio"] = ratio(hits, hits+misses)
	m["matching.calls"] = c["dmfb_kernel_matcher_invocations_total"]
	m["service.cache_hit_ratio"] = ratio(c["dmfb_cache_hits_total"], c["dmfb_cache_hits_total"]+c["dmfb_cache_misses_total"])
	m["service.admission_wait_ms"] = 1000 * ratio(c["dmfb_admission_wait_seconds_sum"], c["dmfb_admission_wait_seconds_count"])

	cold, records, proc := workloadInputs(in)
	if len(cold) == 0 {
		return nil, errors.New("workload computed no Monte-Carlo scenario")
	}
	m["runtime.gc_cpu_share"] = ratio(float64(proc.gcCPU), float64(proc.cpu))
	sample := make([]service.ScenarioRequest, 0, replaySample)
	for _, c := range spread(cold, replaySample) {
		sample = append(sample, c.req)
	}

	if err := replayKernel(ctx, in.tr, sample, m); err != nil {
		return nil, err
	}
	probes := spread(cold, probeSample)
	kernel, err := kernelLayers(ctx, in.tr, probes, m)
	if err != nil {
		return nil, err
	}
	coldReqs := make([]service.ScenarioRequest, len(cold))
	for i, c := range cold {
		coldReqs[i] = c.req
	}
	buildShare, err := layoutLadder(in.tr, coldReqs, m)
	if err != nil {
		return nil, err
	}
	m["layout.build_share"] = buildShare / proc.cpu.Seconds()
	if err := sweepLadder(ctx, in, coldReqs, sample, m); err != nil {
		return nil, err
	}
	if err := serviceLadder(ctx, in, sample, records, m); err != nil {
		return nil, err
	}
	dispatchLayers(in, m)

	// Shares of the workload's CPU: each sample's cost scaled up to all of
	// the workload's first-time scenarios. The scheduler's and the
	// instrumentation's shares are differences of separately timed probes,
	// and the unattributed share is what the others leave; each is floored
	// at 0, since a negative difference is below what the probes resolve.
	cpu := proc.cpu.Seconds()
	probeScale := float64(len(cold)) / float64(len(probes)) * 1e-9 / cpu
	m["share.defects"] = kernel.inject * probeScale
	m["share.reconfig"] = kernel.feasible * probeScale
	m["share.matching"] = kernel.solve * (1 - m["reconfig.memo_hit_ratio"]) * probeScale
	m["share.layout"] = m["layout.build_share"]
	m["share.yieldsim"] = max(0, (kernel.trial-kernel.inject-kernel.feasible)*probeScale)
	m["share.sweep"] = float64(len(records)) * m["sweep.order_us_per_point"] * 1e-6 / cpu
	m["share.service"] = float64(len(records)) * m["service.record_encode_us"] * 1e-6 / cpu
	m["share.client"] = float64(len(records)) * m["client.stream_decode_us"] * 1e-6 / cpu
	m["share.telemetry"] = max(0, (m["telemetry.kernel_overhead"]-1)*kernel.trial*probeScale)
	m["share.runtime"] = m["runtime.gc_cpu_share"]
	rest := 1.0
	for _, k := range []string{"yieldsim", "defects", "reconfig", "layout", "sweep", "service", "client", "telemetry", "runtime"} {
		rest -= m["share."+k]
	}
	m["share.unattributed"] = max(0, rest)

	// Tracing overhead: the spans the workload recorded times the measured
	// cost of recording one, against the workload's CPU.
	m["trace.spans"] = float64(spans)
	m["trace.span_cost_ns"] = spanCost()
	m["trace.overhead_share"] = float64(spans) * m["trace.span_cost_ns"] * 1e-9 / cpu
	for _, k := range []string{"ops_per_s", "latency_p50_ms", "latency_p90_ms", "hit_latency_p50_ms", "cpu_ms_per_op", "alloc_kb_per_op"} {
		m["traced."+k] = in.e2e[k]
	}

	out := make(map[string]metricValue, len(m))
	for k, v := range m {
		u, ok := layerUnits[k]
		if !ok {
			return nil, fmt.Errorf("metric %s has no unit", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, v)
		}
		out[k] = metricValue{Value: v, Unit: u}
	}
	for k := range layerUnits {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", k)
		}
	}
	return out, nil
}

// coldScenario is a Monte-Carlo scenario the workload evaluated for the
// first time, with the trials it took.
type coldScenario struct {
	req    service.ScenarioRequest
	trials int
}

// workloadInputs returns the Monte-Carlo scenarios the workload evaluated
// for the first time, every record it received, and its CPU window.
func workloadInputs(in ladderInput) (cold []coldScenario, records []any, proc procSample) {
	if in.eval != nil {
		for _, op := range in.eval.ops {
			if op.err != nil {
				continue
			}
			records = append(records, op.rec)
			if op.first < 0 && op.req.Strategy != "none" {
				cold = append(cold, coldScenario{op.req, op.rec.Runs})
			}
		}
		proc = totalProc(in.eval.rounds)
		return cold, records, proc
	}
	for _, op := range in.sweeps.jobs {
		for k, r := range op.recs {
			records = append(records, r)
			if !r.Cached {
				cold = append(cold, coldScenario{op.spec.grid[k], r.Runs})
			}
		}
	}
	proc = totalProc(in.sweeps.rounds)
	return cold, records, proc
}

func scenarioOf(r service.ScenarioRequest) sweep.Scenario {
	return sweep.Scenario{
		Strategy: sweep.Strategy(r.Strategy), Design: r.Design, NPrimary: r.NPrimary, SpareRows: r.SpareRows,
		P: r.P, DefectModel: sweep.DefectModel(r.DefectModel), ClusterSize: r.ClusterSize,
	}
}

// cpuNow is the process's CPU time so far.
func cpuNow() time.Duration { return sampleProc().cpu }

// replayKernel replays the sample through sweep.EvaluateScenario: at one
// kernel worker with KernelMetrics attached (trials per CPU second), at
// GOMAXPROCS workers (parallel speedup), and at one worker without metrics
// (telemetry overhead, with the two one-worker passes alternating in
// order).
func replayKernel(ctx context.Context, tr *tracer, sample []service.ScenarioRequest, m map[string]float64) error {
	km := telemetry.NewKernelMetrics(nil)
	var cpu1, cpuNil time.Duration
	var wall1, wallN time.Duration
	for i, r := range sample {
		sc := scenarioOf(r)
		sp := core.SimParams{Runs: r.Runs, Seed: r.Seed, Epsilon: r.Epsilon, Workers: 1}
		one := func(metrics *telemetry.KernelMetrics) (time.Duration, time.Duration, error) {
			sp := sp
			sp.Metrics = metrics
			name := map[bool]string{true: "yieldsim.replay.workers1", false: "yieldsim.replay.nometrics"}[metrics != nil]
			var err error
			c0 := cpuNow()
			wall := tr.time(name, r.Strategy, func() { _, err = sweep.EvaluateScenario(ctx, sc, sp) })
			return wall, cpuNow() - c0, err
		}
		order := []*telemetry.KernelMetrics{km, nil}
		if i%2 == 1 {
			order[0], order[1] = nil, km
		}
		for _, metrics := range order {
			wall, cpu, err := one(metrics)
			if err != nil {
				return err
			}
			if metrics != nil {
				wall1, cpu1 = wall1+wall, cpu1+cpu
			} else {
				cpuNil += cpu
			}
		}
		sp.Workers = 0
		var err error
		wallN += tr.time("yieldsim.replay.gomaxprocs", r.Strategy, func() { _, err = sweep.EvaluateScenario(ctx, sc, sp) })
		if err != nil {
			return err
		}
	}
	m["yieldsim.trials_per_cpu_s"] = float64(km.Trials.Value()) / cpu1.Seconds()
	m["yieldsim.parallel_speedup"] = float64(wall1) / float64(wallN)
	m["telemetry.kernel_overhead"] = float64(cpu1) / float64(cpuNil)
	return nil
}

// kernelArray builds a local or hex scenario's array the way the kernel
// does.
func kernelArray(r service.ScenarioRequest) (*layout.Array, error) {
	d, err := layout.DesignByName(r.Design)
	if err != nil {
		return nil, err
	}
	if r.Strategy == "hex" {
		return layout.BuildHexagonWithPrimaryTarget(d, r.NPrimary)
	}
	return layout.BuildWithPrimaryTarget(d, r.NPrimary)
}

// kernelCost is the estimated time, in ns, the probed scenarios spend over
// all their trials in the kernel as a whole, in injection, in feasibility
// with the memo armed, and in the matcher alone.
type kernelCost struct{ trial, inject, feasible, solve float64 }

// kernelLayers probes each scenario with one 64-trial batch injected as the
// kernel injects it, then judged by a fresh memoizing session and by a
// session without memo (the matcher alone), and times session set-up. It
// also times the whole kernel per trial, as the difference between a
// one-worker estimate of three chunks and of one, which cancels the fixed
// cost of building the array. Per-trial costs are weighted by the trials
// each scenario took in the workload.
func kernelLayers(ctx context.Context, tr *tracer, probes []coldScenario, m map[string]float64) (kernelCost, error) {
	arrays := make(map[string]*layout.Array)
	var wKernel, wInject, wFeas, wSolve, wCalls, wTrials float64
	var setupT time.Duration
	setups := 0
	for i, c := range probes {
		r := c.req
		w := float64(c.trials) / defects.WordTrials // weight per probed trial
		in := defects.NewInjector(int64(i) + 1)
		var chunks [2]time.Duration
		for k, runs := range []int{256, 768} {
			var err error
			sp := core.SimParams{Runs: runs, Seed: r.Seed, Workers: 1}
			chunks[k] = tr.timeCPU("yieldsim.probe", r.Strategy, func() { _, err = sweep.EvaluateScenario(ctx, scenarioOf(r), sp) })
			if err != nil {
				return kernelCost{}, err
			}
		}
		wKernel += float64(c.trials) * float64(chunks[1]-chunks[0]) / 512
		model := defects.Model{Clustered: r.DefectModel == "clustered", ClusterSize: r.ClusterSize}
		wTrials += float64(c.trials)
		if r.Strategy == "shifted" {
			pl, err := sqgrid.PlacementWithPrimaryTarget(r.NPrimary, r.SpareRows)
			if err != nil {
				return kernelCost{}, err
			}
			n := pl.Grid.NumCells()
			fs := defects.NewFaultSet(n)
			cp := model.Params(r.P, n)
			var ierr error
			trials := func(k int) {
				for t := 0; t < k && ierr == nil; t++ {
					if model.Clustered {
						fs, _, ierr = in.ClusteredGrid(pl.Grid.W, pl.Grid.H, cp, fs)
					} else {
						fs = in.BernoulliN(n, r.P, fs)
					}
				}
			}
			trials(defects.WordTrials) // warm-up, untimed
			d := tr.timeCPU("defects.scalar", r.Strategy, func() { trials(defects.WordTrials) })
			if ierr != nil {
				return kernelCost{}, ierr
			}
			wInject += w * float64(d)
			continue
		}
		key := r.Strategy + "/" + r.Design + "/" + fmt.Sprint(r.NPrimary)
		arr, ok := arrays[key]
		if !ok {
			var err error
			if arr, err = kernelArray(r); err != nil {
				return kernelCost{}, err
			}
			arrays[key] = arr
		}
		n := arr.NumCells()
		tb := defects.NewTrialBatch(n)
		var memo, plain *reconfig.Session
		var err error
		setupT += tr.time("reconfig.session_setup", r.Strategy, func() {
			if memo, err = reconfig.NewSession(arr, reconfig.Options{}); err == nil {
				memo.EnableMemo(reconfig.DefaultMemoCapacity)
			}
		})
		setups++
		if err != nil {
			return kernelCost{}, err
		}
		if plain, err = reconfig.NewSession(arr, reconfig.Options{}); err != nil {
			return kernelCost{}, err
		}
		inject := func() {
			if model.Clustered {
				_, err = in.ClusteredBatch(arr, model.Params(r.P, n), defects.WordTrials, tb)
			} else {
				in.BernoulliBatch(n, r.P, defects.WordTrials, tb)
			}
		}
		inject() // warm-up, untimed
		d := tr.timeCPU("defects.batch", r.Strategy, inject)
		if err != nil {
			return kernelCost{}, err
		}
		wInject += w * float64(d)
		occ := tb.Occupied()
		if occ == 0 {
			continue
		}
		tb.Finalize()
		wCalls += w * float64(bits.OnesCount64(occ))
		for _, pass := range []struct {
			sess *reconfig.Session
			name string
			acc  *float64
		}{{memo, "reconfig.feasible_words", &wFeas}, {plain, "matching.solve", &wSolve}} {
			d := tr.timeCPU(pass.name, r.Strategy, func() {
				for rows := occ; rows != 0 && err == nil; rows &= rows - 1 {
					_, err = pass.sess.FeasibleWords(tb.Row(bits.TrailingZeros64(rows)))
				}
			})
			if err != nil {
				return kernelCost{}, err
			}
			*pass.acc += w * float64(d)
		}
	}
	m["defects.inject_ns_per_trial"] = wInject / max(wTrials, 1)
	m["reconfig.feasible_ns"] = wFeas / max(wCalls, 1)
	m["matching.solve_ns"] = wSolve / max(wCalls, 1)
	m["reconfig.session_setup_us"] = float64(setupT) / 1e3 / float64(max(setups, 1))
	return kernelCost{trial: wKernel, inject: wInject, feasible: wFeas, solve: wSolve}, nil
}

// layoutLadder times one array build per distinct geometry the workload
// evaluated and returns the estimated build time of the whole workload in
// seconds (one build per first-time evaluation).
func layoutLadder(tr *tracer, cold []service.ScenarioRequest, m map[string]float64) (float64, error) {
	type geom struct {
		strategy, design string
		n, spare         int
	}
	cost := make(map[geom]time.Duration)
	var total time.Duration
	for _, r := range cold {
		g := geom{r.Strategy, r.Design, r.NPrimary, r.SpareRows}
		d, ok := cost[g]
		if !ok {
			var err error
			d = tr.time("layout.build", r.Strategy, func() {
				if r.Strategy == "shifted" {
					_, err = sqgrid.PlacementWithPrimaryTarget(r.NPrimary, r.SpareRows)
				} else {
					_, err = kernelArray(r)
				}
			})
			if err != nil {
				return 0, err
			}
			cost[g] = d
		}
		total += d
	}
	m["layout.build_ms"] = ms(total) / float64(len(cold))
	return total.Seconds(), nil
}

// sweepLadder times ordered emission (sweep.Run with an evaluator that
// returns at once) over the workload's points, and Engine.PlanSweep over
// its jobs — or, for evaluate, over one Fig. 9-style grid per sampled
// scenario.
func sweepLadder(ctx context.Context, in ladderInput, cold, sample []service.ScenarioRequest, m map[string]float64) error {
	var grids [][]service.ScenarioRequest
	var reqs []service.SweepRequest
	if in.sweeps != nil {
		for _, op := range in.sweeps.jobs {
			grids = append(grids, op.spec.grid)
			reqs = append(reqs, op.spec.req)
		}
	} else {
		grids = append(grids, cold)
		for _, r := range sample {
			req := service.SweepRequest{Strategies: []string{r.Strategy}, NPrimaries: []int{r.NPrimary},
				Ps: sweepPGrid[:12], DefectModels: []string{"independent", "clustered"}, ClusterSize: clusterK,
				Runs: r.Runs, Seed: r.Seed}
			if r.Strategy == "shifted" {
				req.SpareRows = []int{r.SpareRows}
			} else {
				req.Designs = []string{r.Design}
			}
			reqs = append(reqs, req)
		}
	}
	eval := func(_ context.Context, pt sweep.Point) (sweep.PointResult, error) {
		return sweep.PointResult{Point: pt}, nil
	}
	var orderT time.Duration
	points := 0
	for _, g := range grids {
		pts := make([]sweep.Point, len(g))
		for i, r := range g {
			pts[i] = sweep.Point{Index: i, Scenario: scenarioOf(r)}
		}
		var err error
		orderT += in.tr.time("sweep.run", "ladder", func() {
			err = sweep.Run(ctx, pts, 2, eval, func(sweep.PointResult) error { return nil })
		})
		if err != nil {
			return err
		}
		points += len(pts)
	}
	m["sweep.order_us_per_point"] = float64(orderT) / 1e3 / float64(max(points, 1))
	e := service.NewEngine(service.EngineConfig{})
	var planT time.Duration
	for _, req := range reqs {
		var err error
		planT += in.tr.time("sweep.plan", "ladder", func() { _, err = e.PlanSweep(req) })
		if err != nil {
			return err
		}
	}
	m["sweep.plan_ms"] = ms(planT) / float64(len(reqs))
	return nil
}

// serviceLadder times the engine in process (cold and cached), record
// encoding, the durable store's per-record append, job creation and stream
// decoding.
func serviceLadder(ctx context.Context, in ladderInput, sample []service.ScenarioRequest, records []any, m map[string]float64) error {
	e := service.NewEngine(service.EngineConfig{})
	var coldT, hitT time.Duration
	hitCalls := 0
	for _, r := range sample {
		var err error
		coldT += in.tr.time("service.engine", r.Strategy, func() { _, err = e.EvaluateScenario(ctx, r) })
		if err != nil {
			return err
		}
		for k := 0; k < 50; k++ {
			hitT += in.tr.time("service.engine.hit", r.Strategy, func() { _, err = e.EvaluateScenario(ctx, r) })
			if err != nil {
				return err
			}
			hitCalls++
		}
	}
	m["service.engine_ms"] = ms(coldT) / float64(len(sample))
	m["service.hit_us"] = float64(hitT) / 1e3 / float64(hitCalls)

	var encT time.Duration
	for _, r := range records {
		var err error
		encT += in.tr.time("service.encode", "ladder", func() { _, err = json.Marshal(r) })
		if err != nil {
			return err
		}
	}
	m["service.record_encode_us"] = float64(encT) / 1e3 / float64(max(len(records), 1))

	appendUS, err := storeAppend(ctx, in.tr)
	if err != nil {
		return err
	}
	m["service.store_append_us"] = appendUS

	if in.eval != nil {
		m["service.request_overhead_us"] = in.e2e["hit_latency_p50_ms"]*1e3 - m["service.hit_us"]
		return nil
	}
	// A sweep's cached operation is re-reading a finished job from a
	// cursor: its round trip minus the store's in-process replay of the
	// same records, for the last 32 re-reads (older jobs may have been
	// evicted from the store).
	var local []float64
	for _, rp := range in.sweeps.replays[max(0, len(in.sweeps.replays)-32):] {
		op := in.sweeps.jobs[rp.job]
		j, err := in.stack.store.Get(op.id)
		if err != nil {
			return err
		}
		d := in.tr.time("service.stream_results", op.id, func() {
			_, err = j.StreamResults(ctx, rp.cursor, func([]byte) error { return nil })
		})
		if err != nil {
			return err
		}
		local = append(local, ms(d))
	}
	m["service.request_overhead_us"] = (in.e2e["hit_latency_p50_ms"] - median(local)) * 1e3
	return nil
}

// storeAppend runs a job of closed-form points on a durable and on an
// in-memory store and returns the per-record difference in microseconds:
// the cost of the append and its fsync.
func storeAppend(ctx context.Context, tr *tracer) (float64, error) {
	req := service.SweepRequest{Strategies: []string{"none"}, NPrimaries: []int{60, 120, 240, 480},
		Ps: sweepPGrid, DefectModels: []string{"independent"}, Seed: 1}
	points := len(expandGrid(req))
	timeJob := func(durable bool) (time.Duration, error) {
		e := service.NewEngine(service.EngineConfig{})
		var st *service.Store
		if durable {
			dir, err := makeTempDir("append-")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			if st, err = service.NewFileJobStore(e, service.JobStoreConfig{}, dir); err != nil {
				return 0, err
			}
			for !st.Ready() {
				time.Sleep(100 * time.Microsecond)
			}
		} else {
			st = service.NewJobStore(e, service.JobStoreConfig{})
		}
		defer st.Close(ctx)
		var err error
		name := map[bool]string{true: "service.job.file_store", false: "service.job.memory_store"}[durable]
		d := tr.time(name, "ladder", func() {
			var j *service.Job
			if j, err = st.Create(ctx, req); err == nil {
				var status service.JobStatus
				status, err = j.Wait(ctx)
				if err == nil && status.State != service.JobCompleted {
					err = fmt.Errorf("append ladder job ended %s", status.State)
				}
			}
		})
		return d, err
	}
	var file, mem []float64
	for k := 0; k < 3; k++ {
		f, err := timeJob(true)
		if err != nil {
			return 0, err
		}
		mm, err := timeJob(false)
		if err != nil {
			return 0, err
		}
		file, mem = append(file, float64(f)), append(mem, float64(mm))
	}
	return (median(file) - median(mem)) / 1e3 / float64(points), nil
}

// dispatchLayers reads the dispatch metrics from the workload's own spans
// and counters; a workload that never dispatches reports them as 0. It also
// derives job creation and stream decoding from the sweeps' spans and
// re-reads; evaluate, which makes no jobs, reports those as 0 too.
func dispatchLayers(in ladderInput, m map[string]float64) {
	for _, k := range []string{"lease_ms", "submit_ms", "empty_leases", "worker_busy_share", "shards_leased", "shards_expired", "shard_ms"} {
		m["dispatch."+k] = 0
	}
	m["service.job_create_ms"], m["client.stream_decode_us"] = 0, 0
	if in.sweeps == nil {
		return
	}
	spans := in.tr.snapshot()
	m["service.job_create_ms"] = meanSpan(spans, "POST /v2/jobs", "job-op-")
	var total time.Duration
	replayed := 0
	for _, rp := range in.sweeps.replays {
		total += rp.d
		replayed += len(in.sweeps.jobs[rp.job].recs) - rp.cursor
	}
	m["client.stream_decode_us"] = float64(total) / 1e3 / float64(max(replayed, 1))
	if in.workload != "sweep-distributed" {
		return
	}
	window := in.sweeps.end.Sub(in.sweeps.start)
	from := int64(in.sweeps.start.Sub(in.tr.t0))
	dispatchSpans(spans, from, from+int64(window), window, m)
	c := in.counters
	m["dispatch.shards_leased"] = c["dmfb_dispatch_shards_leased_total"]
	m["dispatch.shards_expired"] = c["dmfb_dispatch_shards_expired_total"]
	m["dispatch.shard_ms"] = 1000 * c["dmfb_dispatch_shard_duration_seconds_sum"] /
		max(c["dmfb_dispatch_shard_duration_seconds_count"], 1)
}

// meanSpan is the mean duration in milliseconds of the spans with the
// given name whose parent starts with prefix.
func meanSpan(spans []span, name, prefix string) float64 {
	var total time.Duration
	n := 0
	for _, sp := range spans {
		if sp.Name == name && strings.HasPrefix(sp.Parent, prefix) {
			total += sp.dur()
			n++
		}
	}
	return ms(total) / float64(max(n, 1))
}

// dispatchSpans derives the workers' lease and submit costs, empty leases
// and busy share from their HTTP spans inside [from, to) of the tracer's
// clock. A worker is busy from the end of a granted lease to the end of the
// submit that returns it.
func dispatchSpans(all []span, from, to int64, window time.Duration, m map[string]float64) {
	var spans []span
	for _, sp := range all {
		if sp.Start >= from && sp.End < to {
			spans = append(spans, sp)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	m["dispatch.lease_ms"] = meanSpan(spans, "POST /v2/workers/lease", "worker-")
	m["dispatch.submit_ms"] = meanSpan(spans, "POST /v2/workers/results", "worker-")
	empty := 0
	busy := make(map[string]time.Duration)
	granted := make(map[string]int64)
	for _, sp := range spans {
		switch sp.Name {
		case "POST /v2/workers/lease":
			if sp.Status == 204 {
				empty++
			} else if sp.Status == 200 {
				granted[sp.Parent] = sp.End
			}
		case "POST /v2/workers/results":
			if g, ok := granted[sp.Parent]; ok {
				busy[sp.Parent] += time.Duration(sp.End - g)
				delete(granted, sp.Parent)
			}
		}
	}
	var total time.Duration
	for _, b := range busy {
		total += b
	}
	m["dispatch.empty_leases"] = float64(empty)
	m["dispatch.worker_busy_share"] = float64(total) / float64(2*window)
}

// spanCost measures the cost of recording one span.
func spanCost() float64 {
	t := newTracer()
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.add("cost", "ladder", time.Now(), time.Now(), 0)
	}
	return float64(time.Since(start)) / n
}
