package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dmfb/internal/service"
)

// The evaluate workload's vocabulary.
var (
	designs  = []string{"DTMB(1,6)", "DTMB(2,6)", "DTMB(3,6)", "DTMB(4,4)"}
	nValues  = []int{60, 120, 240, 480}
	evalPs   = []float64{0.90, 0.92, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99, 0.995, 0.999}
	clusterK = 4.0
)

// evalRoundSize is the number of first-time requests per round: 20 local,
// 12 hex, 8 shifted and 4 none scenarios (45/27/18/9%).
const evalRoundSize = 44

// epsilons are the precision targets of precision-targeted requests.
var epsilons = []float64{0.005, 0.00625, 0.0075, 0.00875, 0.01}

// evalSlots is the make-up of every evaluate round. Local covers each
// design at each n plus one more design per n, hex each n at three designs,
// shifted each n at both spare-row counts, none each n. Each slot has a
// fixed p level, defect model (13 of 44 clustered) and precision target (8
// of the 40 Monte-Carlo slots at a 50 000-trial budget), so every round
// does the same work: the medians over rounds then resist a neighbour's
// burst of load, and runs with different seeds compare.
var evalSlots = func() []service.ScenarioRequest {
	var out []service.ScenarioRequest
	add := func(sc service.ScenarioRequest) {
		slot := len(out)
		sc.P = evalPs[(slot*3)%len(evalPs)]
		sc.DefectModel = "independent"
		if (slot*7)%10 < 3 {
			sc.DefectModel, sc.ClusterSize = "clustered", clusterK
		}
		switch {
		case sc.Strategy == "none":
		case (slot*3+1)%10 < 2:
			sc.Runs = 50000
			sc.Epsilon = epsilons[slot%len(epsilons)]
		default:
			sc.Runs = 10000
		}
		out = append(out, sc)
	}
	for i, n := range nValues {
		for _, d := range designs {
			add(service.ScenarioRequest{Strategy: "local", Design: d, NPrimary: n})
		}
		add(service.ScenarioRequest{Strategy: "local", Design: designs[(i+1)%len(designs)], NPrimary: n})
		for k, d := range designs {
			if k != i {
				add(service.ScenarioRequest{Strategy: "hex", Design: d, NPrimary: n})
			}
		}
		for _, spare := range []int{1, 2} {
			add(service.ScenarioRequest{Strategy: "shifted", SpareRows: spare, NPrimary: n})
		}
		add(service.ScenarioRequest{Strategy: "none", NPrimary: n})
	}
	return out
}()

// evalRound generates round r of the evaluate workload's first-time
// requests: the slots in seeded order, each slot's defect probability 1−p
// moved by up to ±10% from its level, and seeds distinct across the run, so
// that no two first-time requests share a cache entry.
func evalRound(seed int64, r int) []service.ScenarioRequest {
	rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
	out := make([]service.ScenarioRequest, len(evalSlots))
	for i, k := range rng.Perm(len(evalSlots)) {
		sc := evalSlots[k]
		q := (1 - sc.P) * (0.9 + 0.2*rng.Float64())
		sc.P = math.Round((1-q)*1e6) / 1e6
		sc.Seed = seed*1_000_000 + int64(r*evalRoundSize+i) + 1
		out[i] = sc
	}
	return out
}

// evalOp is one evaluate request with its outcome.
type evalOp struct {
	req     service.ScenarioRequest
	rec     service.ScenarioRecord
	first   int // for a repeat: index of the first request in ops; else -1
	latency time.Duration
	err     error
}

// evalResult is what the evaluate loop hands to checks, metrics and the
// ladder.
type evalResult struct {
	ops    []evalOp
	rounds []round
}

// runEvaluate drives the closed loop: each round's first-time requests in
// order, and after every second one a repeat of one of the last 64
// Monte-Carlo requests, which the cache serves. It runs whole rounds until
// the measuring time is used up, and calls between after each.
func runEvaluate(ctx context.Context, s *stack, seed int64, dur time.Duration, between func()) evalResult {
	rng := rand.New(rand.NewSource(seed))
	var res evalResult
	var mc []int // indexes in res.ops of first-time Monte-Carlo requests
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < dur; r++ {
		t0, p0, roundStart := time.Now(), sampleProc(), len(res.ops)
		for i, req := range evalRound(seed, r) {
			res.ops = append(res.ops, evalCall(ctx, s, req, len(res.ops), -1))
			if req.Strategy != "none" {
				mc = append(mc, len(res.ops)-1)
			}
			if i%2 == 1 && len(mc) > 0 {
				recent := mc[max(0, len(mc)-64):]
				first := recent[rng.Intn(len(recent))]
				res.ops = append(res.ops, evalCall(ctx, s, res.ops[first].req, len(res.ops), first))
			}
		}
		rd := round{ops: len(res.ops) - roundStart, elapsed: time.Since(t0), proc: sampleProc().sub(p0)}
		for _, op := range res.ops[roundStart:] {
			switch {
			case op.err != nil:
			case op.first >= 0:
				rd.hits = append(rd.hits, ms(op.latency))
			case op.req.Strategy != "none":
				rd.lat = append(rd.lat, ms(op.latency))
			}
		}
		res.rounds = append(res.rounds, rd)
		between()
	}
	return res
}

func evalCall(ctx context.Context, s *stack, req service.ScenarioRequest, i, first int) evalOp {
	op := evalOp{req: req, first: first}
	t0 := time.Now()
	op.rec, op.err = s.cli.Evaluate(withOp(ctx, fmt.Sprintf("evaluate-%d", i)), req)
	op.latency = time.Since(t0)
	return op
}

// checkEvaluate runs every output check of the evaluate workload.
func checkEvaluate(o *oracle, res evalResult) (failed int, errs []error) {
	for i, op := range res.ops {
		switch {
		case op.err != nil:
			failed++
		case op.first >= 0 && res.ops[op.first].err != nil:
			// The first request failed and is counted there.
		case op.first >= 0:
			if err := checkHit(res.ops[op.first].rec, op.rec); err != nil {
				errs = append(errs, fmt.Errorf("request %d: %w", i, err))
			}
		default:
			if op.rec.Cached {
				errs = append(errs, fmt.Errorf("request %d: first request of a scenario served from cache", i))
			}
			if err := o.checkRecord(op.req, op.rec); err != nil {
				errs = append(errs, fmt.Errorf("request %d: %w", i, err))
			}
		}
	}
	return failed, errs
}
