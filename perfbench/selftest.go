package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dmfb/internal/service"
)

// selfTest shows that each output check rejects a doctored output: it takes
// real records from an in-process engine, confirms that the checks accept
// them, then doctors one property at a time and expects a rejection.
func selfTest(ctx context.Context) error {
	o := newOracle()
	e := service.NewEngine(service.EngineConfig{})
	eval := func(req service.ScenarioRequest) (service.ScenarioRecord, error) {
		rec, err := e.EvaluateScenario(ctx, req)
		if err != nil {
			return rec, err
		}
		if err := o.checkRecord(req, rec); err != nil {
			return rec, fmt.Errorf("genuine record rejected: %w", err)
		}
		return rec, nil
	}
	var errs []error
	expectReject := func(what string, err error) {
		if err == nil {
			errs = append(errs, fmt.Errorf("%s was accepted", what))
		}
	}

	exact := service.ScenarioRequest{Strategy: "local", Design: "DTMB(1,6)", NPrimary: 60, P: 0.95,
		DefectModel: "independent", Runs: 4000, Seed: 11}
	rec, err := eval(exact)
	if err != nil {
		return err
	}
	expectReject("a yield moved by 10σ", o.checkRecord(exact, moveYield(rec, 10)))
	bad := rec
	bad.Successes++
	expectReject("successes that do not match runs", o.checkRecord(exact, bad))

	hit, err := e.EvaluateScenario(ctx, exact)
	if err != nil {
		return err
	}
	if err := checkHit(rec, hit); err != nil {
		return fmt.Errorf("genuine cache hit rejected: %w", err)
	}
	bad = hit
	bad.CIHi = math.Nextafter(bad.CIHi, 2)
	expectReject("a cache hit whose fields differ", checkHit(rec, bad))

	adaptive := service.ScenarioRequest{Strategy: "local", Design: "DTMB(2,6)", NPrimary: 60, P: 0.99,
		DefectModel: "independent", Runs: 50000, Seed: 12, Epsilon: 0.01}
	rec, err = eval(adaptive)
	if err != nil {
		return err
	}
	if rec.Runs >= adaptive.Runs {
		return errors.New("precision-targeted sample did not stop early")
	}
	// Claim a tighter target than the interval met: the record stopped
	// early with a half-width above its epsilon.
	tight := adaptive
	tight.Epsilon = (rec.CIHi - rec.CILo) / 4
	bad = rec
	bad.Epsilon = tight.Epsilon
	expectReject("an early stop with half-width above epsilon", o.checkRecord(tight, bad))

	sweepReq := service.SweepRequest{Strategies: []string{"local"}, Designs: []string{"DTMB(2,6)"},
		NPrimaries: []int{60}, Ps: []float64{0.95, 0.97, 0.99}, DefectModels: []string{"independent", "clustered"},
		ClusterSize: clusterK, Runs: 1000, Seed: 13}
	var recs []service.SweepRecord
	if err := e.Sweep(ctx, sweepReq, func(r service.SweepRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return err
	}
	grid := expandGrid(sweepReq)
	if err := o.checkStream(grid, recs); err != nil {
		return fmt.Errorf("genuine job stream rejected: %w", err)
	}
	dropped := append(append([]service.SweepRecord(nil), recs[:2]...), recs[3:]...)
	expectReject("a stream with a dropped record", o.checkStream(grid, dropped))
	swapped := append([]service.SweepRecord(nil), recs...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	expectReject("a stream with reordered records", o.checkStream(grid, swapped))
	return errors.Join(errs...)
}

// moveYield shifts a record's estimate by k standard errors while keeping
// every identity (successes, interval, effective yield) consistent, so only
// the oracle can tell.
func moveYield(r service.ScenarioRecord, k float64) service.ScenarioRecord {
	n := float64(r.Runs)
	step := int(math.Ceil(k * math.Sqrt(r.Yield*(1-r.Yield)/n) * n))
	if r.Successes+step > r.Runs {
		step = -step
	}
	r.Successes += step
	r.Yield = float64(r.Successes) / n
	r.CILo, r.CIHi = wilson(r.Successes, r.Runs, z95)
	r.EffectiveYield = r.Yield * float64(r.NPrimary) / float64(r.NTotal)
	return r
}
