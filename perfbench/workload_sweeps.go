package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dmfb/internal/core"
	"dmfb/internal/service"
	"dmfb/internal/sweep"
)

// sweepPGrid holds the p values jobs draw from: 0.900, 0.903, …, 0.999.
var sweepPGrid = func() []float64 {
	out := make([]float64, 34)
	for i := range out {
		out[i] = float64(900+3*i) / 1000
	}
	return out
}()

// sweepSlot is one job shape of a sweep round.
type sweepSlot struct {
	family  string
	n       int
	runs    int
	designs []string // local and hex
	spares  []int    // shifted; nil means 1 or 2, alternating by round
}

// sweepSlots is the make-up of every sweep round: each family, each n
// twice, one or two designs or spare-row counts, 1000 or 2000 runs, every
// design in both families. Rounds differ only in job order, the p values
// and the seeds, so every round does nearly the same work.
var sweepSlots = []sweepSlot{
	{"local", 60, 2000, []string{"DTMB(1,6)", "DTMB(2,6)"}, nil},
	{"local", 240, 1000, []string{"DTMB(3,6)"}, nil},
	{"local", 480, 1000, []string{"DTMB(4,4)"}, nil},
	{"hex", 120, 1000, []string{"DTMB(3,6)", "DTMB(4,4)"}, nil},
	{"hex", 240, 2000, []string{"DTMB(1,6)"}, nil},
	{"hex", 480, 1000, []string{"DTMB(2,6)", "DTMB(3,6)"}, nil},
	{"shifted", 120, 2000, nil, []int{1, 2}},
	{"shifted", 60, 2000, nil, nil},
}

// jobSpec is one sweep job with the grid it must stream.
type jobSpec struct {
	req  service.SweepRequest
	grid []service.ScenarioRequest
	// refines is the index of the job this one refines (same axes and
	// seed, half of its p values repeated), or -1.
	refines int
}

// expandGrid lists a request's points in the documented grid order —
// strategy, defect model, design or spare rows, n, then p fastest —
// independently of the program's own expansion.
func expandGrid(req service.SweepRequest) []service.ScenarioRequest {
	var out []service.ScenarioRequest
	for _, st := range req.Strategies {
		for _, m := range req.DefectModels {
			base := service.ScenarioRequest{Strategy: st, DefectModel: m, Runs: req.Runs, Seed: req.Seed}
			if m == "clustered" {
				base.ClusterSize = req.ClusterSize
			}
			var axis []service.ScenarioRequest
			switch st {
			case "none":
				axis = append(axis, base)
			case "shifted":
				for _, r := range req.SpareRows {
					sc := base
					sc.SpareRows = r
					axis = append(axis, sc)
				}
			default:
				for _, d := range req.Designs {
					sc := base
					sc.Design = d
					axis = append(axis, sc)
				}
			}
			for _, sc := range axis {
				for _, n := range req.NPrimaries {
					for _, p := range req.Ps {
						pt := sc
						pt.NPrimary, pt.P = n, p
						out = append(out, pt)
					}
				}
			}
		}
	}
	return out
}

// stratumPs picks one p per stratum of sweepPGrid (twelve strata of two or
// three neighbouring values); shift selects the value within each stratum.
func stratumPs(shift func(k int) int) []float64 {
	out := make([]float64, 12)
	for k := range out {
		lo, hi := k*len(sweepPGrid)/12, (k+1)*len(sweepPGrid)/12
		out[k] = sweepPGrid[lo+shift(k)%(hi-lo)]
	}
	return out
}

// sweepRound generates round r of a sweep workload: one job per slot in
// seeded order. With refine set (the sweep-jobs workload) every job is
// followed by its refinement — same axes and seed, the even strata's p
// values kept and the odd strata's moved to a neighbouring value; without
// it (sweep-distributed) every job has its own seed and no point repeats.
func sweepRound(seed int64, r int, refine, distributed bool) []jobSpec {
	rng := rand.New(rand.NewSource(seed*104729 + int64(r)))
	shift := rng.Intn(3)
	var out []jobSpec
	for _, i := range rng.Perm(len(sweepSlots)) {
		sl := sweepSlots[i]
		req := service.SweepRequest{
			Strategies:   []string{sl.family},
			Designs:      sl.designs,
			NPrimaries:   []int{sl.n},
			Ps:           stratumPs(func(k int) int { return i + shift + k }),
			SpareRows:    sl.spares,
			DefectModels: []string{"independent", "clustered"},
			ClusterSize:  clusterK,
			Runs:         sl.runs,
			Seed:         seed*1_000_000 + int64(r*len(sweepSlots)+i) + 1,
			Distributed:  distributed,
		}
		if sl.family == "shifted" && sl.spares == nil {
			req.SpareRows = []int{1 + (r+i)%2}
		}
		out = append(out, jobSpec{req: req, grid: expandGrid(req), refines: -1})
		if refine {
			ref := req
			ref.Ps = stratumPs(func(k int) int { return i + shift + k + k%2 })
			out = append(out, jobSpec{req: ref, grid: expandGrid(ref), refines: len(out) - 1})
		}
	}
	return out
}

// jobOp is one job round trip with its outcome.
type jobOp struct {
	spec    jobSpec
	id      string
	recs    []service.SweepRecord
	status  service.JobStatus
	latency time.Duration
	err     error
}

type sweepResult struct {
	jobs       []jobOp
	start, end time.Time
	rounds     []round
	// replays are the timed re-reads of finished jobs' streams, made after
	// each round outside its timing.
	replays []replay
	err     error // a replay that failed or differed from the first read
}

// runSweeps drives the closed loop of jobs: create, stream every record
// with client, read the terminal status. It runs whole rounds until the
// measuring time is used up, and calls between after each.
func runSweeps(ctx context.Context, s *stack, seed int64, dur time.Duration, refine, distributed bool, between func()) sweepResult {
	res := sweepResult{start: time.Now()}
	for r := 0; r == 0 || time.Since(res.start) < dur; r++ {
		t0, p0, roundStart := time.Now(), sampleProc(), len(res.jobs)
		for _, spec := range sweepRound(seed, r, refine, distributed) {
			if spec.refines >= 0 {
				spec.refines += roundStart
			}
			res.jobs = append(res.jobs, runJob(ctx, s, spec, len(res.jobs)))
		}
		rd := round{elapsed: time.Since(t0), proc: sampleProc().sub(p0)}
		for _, op := range res.jobs[roundStart:] {
			rd.ops += len(op.recs)
			if op.err == nil {
				rd.lat = append(rd.lat, ms(op.latency))
			}
		}
		// Each job of the round is re-read once in full, untimed, to check
		// its stream. Then every pass re-reads the last replayTail records
		// of every job from a cursor: each timed re-read streams the same
		// records, so their median is one operation's, and a scheduling
		// stall moves a single sample rather than a whole pass.
		for i := roundStart; i < len(res.jobs); i++ {
			if _, err := replayJob(ctx, s, res.jobs[i], i, 0); err != nil && res.err == nil {
				res.err = err
			}
		}
		for pass := 0; pass < replayPasses; pass++ {
			for i := roundStart; i < len(res.jobs); i++ {
				op := res.jobs[i]
				if op.err != nil || len(op.recs) < replayTail {
					continue // checkSweeps reports it
				}
				cursor := len(op.recs) - replayTail
				d, err := replayJob(ctx, s, op, i, cursor)
				if err != nil {
					if res.err == nil {
						res.err = err
					}
					continue
				}
				rd.hits = append(rd.hits, ms(d))
				res.replays = append(res.replays, replay{job: i, cursor: cursor, d: d})
			}
		}
		res.rounds = append(res.rounds, rd)
		between()
	}
	res.end = time.Now()
	return res
}

func runJob(ctx context.Context, s *stack, spec jobSpec, i int) jobOp {
	op := jobOp{spec: spec}
	octx := withOp(ctx, fmt.Sprintf("job-op-%d", i))
	t0 := time.Now()
	st, err := s.cli.CreateJob(octx, spec.req)
	if err == nil {
		op.id = st.ID
		_, err = s.cli.StreamJobResults(octx, st.ID, 0, func(r service.SweepRecord) error {
			op.recs = append(op.recs, r)
			return nil
		})
	}
	if err == nil {
		op.status, err = s.cli.Job(octx, st.ID)
	}
	op.latency = time.Since(t0)
	if err == nil && op.status.State != service.JobCompleted {
		err = fmt.Errorf("job %s ended %s: %s", op.id, op.status.State, op.status.Error)
	}
	op.err = err
	return op
}

// replayPasses is the number of timed re-reads of each job after its
// round; replayTail is the number of records each of them streams, the
// size of the smallest grid a sweep round makes.
const (
	replayPasses = 12
	replayTail   = 24
)

// replay is one timed re-read of a finished job's stream from a cursor.
type replay struct {
	job    int
	cursor int
	d      time.Duration
}

// replayJob re-reads a finished job's stream from cursor — records the job
// store serves without evaluating anything — and checks that it is
// identical to the first read from there on.
func replayJob(ctx context.Context, s *stack, op jobOp, i, cursor int) (time.Duration, error) {
	if op.err != nil {
		return 0, nil
	}
	want := op.recs[cursor:]
	t0 := time.Now()
	count := 0
	_, err := s.cli.StreamJobResults(withOp(ctx, fmt.Sprintf("replay-%d", i)), op.id, cursor, func(r service.SweepRecord) error {
		if count >= len(want) || r != want[count] {
			return fmt.Errorf("replay of %s differs at record %d", op.id, cursor+count)
		}
		count++
		return nil
	})
	d := time.Since(t0)
	if err == nil && count != len(want) {
		err = fmt.Errorf("replay of %s from record %d streamed %d of %d records", op.id, cursor, count, len(want))
	}
	return d, err
}

// checkSweeps runs every output check of a sweep workload.
func checkSweeps(ctx context.Context, o *oracle, res sweepResult, distributed bool) (failed int, errs []error) {
	for i, op := range res.jobs {
		if op.err != nil {
			failed++
			continue
		}
		fail := func(err error) { errs = append(errs, fmt.Errorf("job %d (%s): %w", i, op.id, err)) }
		if op.status.TotalPoints != len(op.spec.grid) || op.status.PointsDone != op.status.TotalPoints {
			fail(fmt.Errorf("status reports %d of %d points for a grid of %d",
				op.status.PointsDone, op.status.TotalPoints, len(op.spec.grid)))
		}
		if err := o.checkStream(op.spec.grid, op.recs); err != nil {
			fail(err)
			continue
		}
		var earlier map[service.ScenarioRequest]service.ScenarioRecord
		if op.spec.refines >= 0 && res.jobs[op.spec.refines].err == nil {
			earlier = make(map[service.ScenarioRequest]service.ScenarioRecord)
			prev := res.jobs[op.spec.refines]
			for k, r := range prev.recs {
				earlier[prev.spec.grid[k]] = r.ScenarioRecord
			}
		}
		for k, r := range op.recs {
			first, repeated := earlier[op.spec.grid[k]]
			switch {
			case repeated:
				if err := checkHit(first, r.ScenarioRecord); err != nil {
					fail(fmt.Errorf("point %d: %w", k, err))
				}
			case r.Cached:
				fail(fmt.Errorf("point %d: first evaluation served from cache", k))
			}
		}
	}
	if distributed {
		errs = append(errs, checkInProcess(ctx, res)...)
	}
	return failed, errs
}

// inProcessSample is the number of distributed points re-evaluated in
// process per run.
const inProcessSample = 6

// checkInProcess re-evaluates a seeded sample of distributed points with
// sweep.EvaluateScenario under the request's runs and seed; the records
// must agree field for field.
func checkInProcess(ctx context.Context, res sweepResult) []error {
	var errs []error
	var okJobs []jobOp
	for _, op := range res.jobs {
		if op.err == nil && len(op.recs) > 0 {
			okJobs = append(okJobs, op)
		}
	}
	if len(okJobs) == 0 {
		return []error{errors.New("no completed distributed job to sample")}
	}
	for k := 0; k < inProcessSample; k++ {
		op := okJobs[(k*7919)%len(okJobs)]
		idx := (k * 31) % len(op.recs)
		want := op.spec.grid[idx]
		sc := sweep.Scenario{
			Strategy: sweep.Strategy(want.Strategy), Design: want.Design, NPrimary: want.NPrimary,
			SpareRows: want.SpareRows, P: want.P, DefectModel: sweep.DefectModel(want.DefectModel),
			ClusterSize: want.ClusterSize,
		}
		pr, err := sweep.EvaluateScenario(ctx, sc, core.SimParams{Runs: want.Runs, Seed: want.Seed, Epsilon: want.Epsilon})
		if err != nil {
			errs = append(errs, fmt.Errorf("in-process evaluation of %s point %d: %w", op.id, idx, err))
			continue
		}
		got := op.recs[idx].ScenarioRecord
		local := recordOf(pr)
		if !sameExceptCached(got, local) {
			errs = append(errs, fmt.Errorf("%s point %d: distributed %+v, in process %+v", op.id, idx, got, local))
		}
	}
	return errs
}

// recordOf renders an in-process point result in the wire record's form.
func recordOf(r sweep.PointResult) service.ScenarioRecord {
	return service.ScenarioRecord{
		Strategy: string(r.Strategy), Design: r.Design, NPrimary: r.NPrimary, SpareRows: r.SpareRows,
		DefectModel: string(r.DefectModel), ClusterSize: r.ClusterSize, NTotal: r.NTotal, P: r.P,
		Runs: r.Runs, Seed: r.Seed, Successes: r.Successes, Epsilon: r.Epsilon, Yield: r.Yield,
		CILo: r.CILo, CIHi: r.CIHi, EffectiveYield: r.EffectiveYield, NoRedundancy: r.NoRedundancy,
	}
}
