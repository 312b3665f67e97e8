package main

import (
	"fmt"
	"math"
	"sync"

	"dmfb/internal/layout"
	"dmfb/internal/service"
	"dmfb/internal/sqgrid"
)

// alpha is the probability with which one comparison of a correct
// estimator against its oracle fails: the binomial tail on the side the
// estimate fell must not be below it. With a few thousand checks per run,
// fewer than one run in 10^4 fails by chance. The tail is computed exactly,
// because a Wilson band of the same width (z ≈ 6) is far too narrow when a
// record holds only a handful of failures or successes: an early-stopped
// record of 1 success in 512 trials against an exact yield of 2.4e-5 —
// a 1.2% event — falls outside it.
const alpha = 1e-9

// z95 is the two-sided 95% normal quantile the program's intervals use.
const z95 = 1.959963984540054

// tol absorbs floating-point rounding in identities the program computes
// with the same formula.
const tol = 1e-12

// wilson returns the Wilson score interval of s successes in n trials at
// width z, clamped to [0, 1].
func wilson(s, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	nf := float64(n)
	ph := float64(s) / nf
	den := 1 + z*z/nf
	center := (ph + z*z/(2*nf)) / den
	half := z * math.Sqrt(ph*(1-ph)/nf+z*z/(4*nf*nf)) / den
	return math.Max(0, center-half), math.Min(1, center+half)
}

// oracle computes the independent answers records are checked against.
// Exact yields come from closed forms over the array's geometry (never from
// the program's estimators); everything else is bounded from below by the
// all-primaries-healthy or no-cluster probability.
type oracle struct {
	mu    sync.Mutex
	exact map[string]func(p float64) float64
}

func newOracle() *oracle { return &oracle{exact: make(map[string]func(float64) float64)} }

// oracleKind says how a scenario's estimate is judged.
type oracleKind int

const (
	closedForm oracleKind = iota // none: the program's closed form, to 1e-12
	exactMC                      // Monte-Carlo estimate of an exact product
	lowerBound                   // Monte-Carlo estimate above a lower bound
)

// judge returns the oracle kind and value for a scenario.
func (o *oracle) judge(sc service.ScenarioRequest, nTotal int) (oracleKind, float64, error) {
	q := 1 - sc.P
	clustered := sc.DefectModel == "clustered"
	switch {
	case sc.Strategy == "none" && clustered:
		return closedForm, math.Exp(-q * float64(sc.NPrimary) / sc.ClusterSize), nil
	case sc.Strategy == "none":
		return closedForm, math.Pow(sc.P, float64(sc.NPrimary)), nil
	case clustered:
		// The chip survives whenever no cluster strikes: the Poisson zero
		// class at rate (1−p)·N / cluster size over all N cells.
		return lowerBound, math.Exp(-q * float64(nTotal) / sc.ClusterSize), nil
	case sc.Strategy == "shifted", sc.Design == "DTMB(1,6)":
		f, err := o.exactFunc(sc)
		if err != nil {
			return 0, 0, err
		}
		return exactMC, f(sc.P), nil
	default:
		return lowerBound, math.Pow(sc.P, float64(sc.NPrimary)), nil
	}
}

// exactFunc returns (memoized per geometry) the exact independent-model
// yield as a function of p.
func (o *oracle) exactFunc(sc service.ScenarioRequest) (func(float64) float64, error) {
	key := fmt.Sprintf("%s/%s/%d/%d", sc.Strategy, sc.Design, sc.NPrimary, sc.SpareRows)
	o.mu.Lock()
	defer o.mu.Unlock()
	if f, ok := o.exact[key]; ok {
		return f, nil
	}
	var f func(float64) float64
	var err error
	if sc.Strategy == "shifted" {
		f, err = shiftedExact(sc.NPrimary, sc.SpareRows)
	} else {
		f, err = dtmb16Exact(sc.Strategy, sc.NPrimary)
	}
	if err != nil {
		return nil, err
	}
	o.exact[key] = f
	return f, nil
}

// dtmb16Exact is the exact yield of a DTMB(1,6) array under independent
// faults. Every primary touches at most one spare, so the array splits into
// independent groups: a spare s with the k_s primaries whose only spare it
// is survives iff no primary fails, or exactly one does and s is healthy —
// p^k_s·(1 + k_s·(1−p)); a primary with no spare must be healthy. The
// paper's Yc^(n/6) assumes every group is a full cluster of six, which the
// arrays the API builds are not, so it is not used.
func dtmb16Exact(strategy string, n int) (func(float64) float64, error) {
	var arr *layout.Array
	var err error
	if strategy == "hex" {
		arr, err = layout.BuildHexagonWithPrimaryTarget(layout.DTMB16(), n)
	} else {
		arr, err = layout.BuildWithPrimaryTarget(layout.DTMB16(), n)
	}
	if err != nil {
		return nil, err
	}
	orphans := 0
	k := make(map[layout.CellID]int)
	for _, id := range arr.Primaries() {
		switch sp := arr.SpareNeighbors(id); len(sp) {
		case 0:
			orphans++
		case 1:
			k[sp[0]]++
		default:
			return nil, fmt.Errorf("oracle: DTMB(1,6) %s n=%d: primary %d has %d spares", strategy, n, id, len(sp))
		}
	}
	groups := make([]int, 0, len(k))
	for _, c := range k {
		groups = append(groups, c)
	}
	return func(p float64) float64 {
		y := math.Pow(p, float64(orphans))
		for _, c := range groups {
			y *= math.Pow(p, float64(c)) * (1 + float64(c)*(1-p))
		}
		return y
	}, nil
}

// shiftedExact is the exact yield of a shifted-replacement array under
// independent faults, a product over columns. A column survives if none of
// its used cells fails, or if exactly one used cell at row y fails and every
// other used cell of the column, plus every unused cell from y+1 down to
// the first spare row, is healthy.
func shiftedExact(n, spareRows int) (func(float64) float64, error) {
	pl, err := sqgrid.PlacementWithPrimaryTarget(n, spareRows)
	if err != nil {
		return nil, err
	}
	w, h := pl.Grid.W, pl.Grid.H
	firstSpare := h - pl.SpareRows
	used := make([]bool, w*h)
	for _, c := range pl.UsedCells() {
		used[c.Y*w+c.X] = true
	}
	// Per column: the used-cell count and, for each used row y, the count
	// of unused cells in rows y+1..firstSpare.
	type column struct {
		used    int
		exposed []int
	}
	cols := make([]column, w)
	for x := 0; x < w; x++ {
		for y := 0; y < firstSpare; y++ {
			if !used[y*w+x] {
				continue
			}
			cols[x].used++
			free := 0
			for r := y + 1; r <= firstSpare; r++ {
				if !used[r*w+x] {
					free++
				}
			}
			cols[x].exposed = append(cols[x].exposed, free)
		}
	}
	return func(p float64) float64 {
		y := 1.0
		for _, c := range cols {
			rest := math.Pow(p, float64(c.used-1))
			col := math.Pow(p, float64(c.used))
			for _, free := range c.exposed {
				col += (1 - p) * rest * math.Pow(p, float64(free))
			}
			y *= col
		}
		return y
	}, nil
}

// checkRecord checks one record against the request that produced it: the
// echoed coordinates, the record identities, the run-count contract and the
// oracle.
func (o *oracle) checkRecord(want service.ScenarioRequest, got service.ScenarioRecord) error {
	if got.Strategy != want.Strategy || got.Design != want.Design || got.NPrimary != want.NPrimary ||
		got.SpareRows != want.SpareRows || got.DefectModel != want.DefectModel ||
		got.ClusterSize != want.ClusterSize || got.P != want.P || got.Seed != want.Seed || got.Epsilon != want.Epsilon {
		return fmt.Errorf("record %+v does not echo request %+v", got, want)
	}
	kind, ref, err := o.judge(want, got.NTotal)
	if err != nil {
		return err
	}
	if kind == closedForm {
		if got.Runs != 0 || got.Successes != 0 || got.NTotal != want.NPrimary {
			return fmt.Errorf("closed-form record carries runs=%d successes=%d n_total=%d", got.Runs, got.Successes, got.NTotal)
		}
		if math.Abs(got.Yield-ref) > tol || got.CILo != got.Yield || got.CIHi != got.Yield ||
			got.EffectiveYield != got.Yield || got.NoRedundancy != got.Yield {
			return fmt.Errorf("closed-form record %+v, want yield %v", got, ref)
		}
		return nil
	}
	if got.Runs <= 0 || got.Successes < 0 || got.Successes > got.Runs {
		return fmt.Errorf("successes %d of runs %d", got.Successes, got.Runs)
	}
	if got.NTotal < want.NPrimary {
		return fmt.Errorf("n_total %d below n_primary %d", got.NTotal, want.NPrimary)
	}
	if math.Abs(got.Yield-float64(got.Successes)/float64(got.Runs)) > tol {
		return fmt.Errorf("yield %v is not successes/runs = %d/%d", got.Yield, got.Successes, got.Runs)
	}
	lo, hi := wilson(got.Successes, got.Runs, z95)
	if got.CILo > got.Yield+tol || got.Yield > got.CIHi+tol ||
		math.Abs(got.CILo-lo) > tol || math.Abs(got.CIHi-hi) > tol {
		return fmt.Errorf("interval [%v, %v] around %v, Wilson gives [%v, %v]", got.CILo, got.CIHi, got.Yield, lo, hi)
	}
	if ey := got.Yield * float64(got.NPrimary) / float64(got.NTotal); math.Abs(got.EffectiveYield-ey) > tol {
		return fmt.Errorf("effective_yield %v, want yield·n/n_total = %v", got.EffectiveYield, ey)
	}
	if nr := math.Pow(got.P, float64(got.NPrimary)); math.Abs(got.NoRedundancy-nr) > tol*math.Max(1, nr) {
		return fmt.Errorf("no_redundancy %v, want p^n = %v", got.NoRedundancy, nr)
	}
	if want.Epsilon == 0 {
		if got.Runs != want.Runs {
			return fmt.Errorf("fixed-run record reports %d runs, requested %d", got.Runs, want.Runs)
		}
	} else {
		if got.Runs > want.Runs {
			return fmt.Errorf("precision-targeted record ran %d trials over its budget %d", got.Runs, want.Runs)
		}
		if got.Runs < want.Runs && (got.CIHi-got.CILo)/2 > want.Epsilon+tol {
			return fmt.Errorf("stopped early at %d runs with half-width %v > epsilon %v",
				got.Runs, (got.CIHi-got.CILo)/2, want.Epsilon)
		}
	}
	tail := binomialTail(got.Successes, got.Runs, ref)
	switch {
	case kind == exactMC && tail < alpha/2:
		return fmt.Errorf("%d/%d is a %.3g tail event at the exact yield %v", got.Successes, got.Runs, tail, ref)
	case kind == lowerBound && got.Yield < ref && tail < alpha:
		return fmt.Errorf("%d/%d is a %.3g tail event below the lower bound %v", got.Successes, got.Runs, tail, ref)
	}
	return nil
}

// binomialTail returns, for X ~ Binomial(n, p), P(X ≥ s) when s lies above
// the mean n·p and P(X ≤ s) otherwise, summing the probability mass from s
// away from the mean until the terms no longer count.
func binomialTail(s, n int, p float64) float64 {
	if (p <= 0 && s == 0) || (p >= 1 && s == n) {
		return 1
	}
	if p <= 0 || p >= 1 {
		return 0
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	lp, lq := math.Log(p), math.Log1p(-p)
	pmf := func(k int) float64 {
		a, _ := math.Lgamma(float64(k + 1))
		b, _ := math.Lgamma(float64(n - k + 1))
		return math.Exp(lgN - a - b + float64(k)*lp + float64(n-k)*lq)
	}
	step := 1
	if float64(s) < float64(n)*p {
		step = -1
	}
	sum := 0.0
	for k := s; k >= 0 && k <= n; k += step {
		t := pmf(k)
		sum += t
		if t == 0 || t < 1e-18*sum {
			break
		}
	}
	return math.Min(sum, 1)
}

// sameExceptCached reports whether two records agree field for field apart
// from the cached flag.
func sameExceptCached(a, b service.ScenarioRecord) bool {
	a.Cached, b.Cached = false, false
	return a == b
}

// checkHit checks that a repeated request was served from the cache and
// equals its first response.
func checkHit(first, hit service.ScenarioRecord) error {
	if first.Cached || !hit.Cached {
		return fmt.Errorf("cached flags first=%v repeat=%v, want false then true", first.Cached, hit.Cached)
	}
	if !sameExceptCached(first, hit) {
		return fmt.Errorf("cache hit %+v differs from first response %+v", hit, first)
	}
	return nil
}

// checkStream checks that a job streamed exactly its grid, in index order,
// and that every record passes checkRecord.
func (o *oracle) checkStream(grid []service.ScenarioRequest, recs []service.SweepRecord) error {
	if len(recs) != len(grid) {
		return fmt.Errorf("job streamed %d records for a grid of %d points", len(recs), len(grid))
	}
	for i, r := range recs {
		if r.Index != i {
			return fmt.Errorf("record %d carries index %d", i, r.Index)
		}
		if err := o.checkRecord(grid[i], r.ScenarioRecord); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return nil
}
