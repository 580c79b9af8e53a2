package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/selector"
)

// CG settings: every solve stops at cgTol relative residual; cgMaxIter
// only catches a broken kernel (κ ≤ 7.7 converges in a few dozen).
const (
	cgTol     = 1e-8
	cgMaxIter = 1000
)

// solveMat is one built member of the solve set with its known solution.
type solveMat struct {
	name  string
	a     *matrix.CSR
	f     *formats.Auto
	xstar []float64
	b     []float64
}

// setupSolve generates the solve set, builds each matrix with default
// Auto selection and takes a first multiply: the set-up a solver user
// pays before the first iteration.
func setupSolve(seed int64, t *tracer) ([]solveMat, error) {
	var out []solveMat
	for i, in := range solveSet(seed) {
		id := t.begin("gen.generate", -1, 0)
		var g *matrix.CSR
		if in.grid > 0 {
			g = stencil27(in.grid, subSeed(seed, 1))
		} else {
			var err error
			if g, err = generate(in.p); err != nil {
				return nil, fmt.Errorf("generate %s: %w", in.name, err)
			}
		}
		t.end(id)
		var a *matrix.CSR
		if in.grid > 0 {
			a = jacobiSPD(g)
		} else {
			a = spdFrom(g)
		}
		g = nil
		// Drop the generator's and the symmetrization's temporaries now, so
		// the peak resident set reflects the program, not when the
		// collector happened to run.
		runtime.GC()
		xstar := seededVector(a.Cols, subSeed(seed, 100+uint64(i)))
		b := make([]float64, a.Rows)
		oracleMul(a, xstar, 1, b, nil)

		id = t.begin("selector.auto", -1, 0)
		f, err := selector.BuildAuto(a, selector.AutoOptions{})
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("auto %s: %w", in.name, err)
		}
		y := make([]float64, a.Rows)
		id = t.begin("formats.multiply", -1, 0)
		f.SpMVParallel(xstar, y, workers())
		t.end(id)
		out = append(out, solveMat{name: in.name, a: a, f: f, xstar: xstar, b: b})
	}
	return out, nil
}

// cgState holds one solver's vectors, reused across solves.
type cgState struct{ x, r, p, ap []float64 }

// cg solves A x = b from x = 0. It returns the iteration count and
// appends the time of each multiply call, in seconds, to mul.
func cg(m *solveMat, s *cgState, t *tracer, parent int, req uint64, mul *[]float64) int {
	n := m.a.Rows
	if len(s.x) != n {
		*s = cgState{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	}
	for i := range s.x {
		s.x[i] = 0
	}
	copy(s.r, m.b)
	copy(s.p, m.b)
	rr := dot(s.r, s.r)
	stop := cgTol * norm2(m.b)
	w := workers()
	it := 0
	for ; it < cgMaxIter && math.Sqrt(rr) > stop; it++ {
		id := t.begin("formats.multiply", parent, req)
		t0 := time.Now()
		m.f.SpMVParallel(s.p, s.ap, w)
		*mul = append(*mul, time.Since(t0).Seconds())
		t.end(id)
		alpha := rr / dot(s.p, s.ap)
		for i := range s.x {
			s.x[i] += alpha * s.p[i]
			s.r[i] -= alpha * s.ap[i]
		}
		rrNew := dot(s.r, s.r)
		beta := rrNew / rr
		rr = rrNew
		for i := range s.p {
			s.p[i] = s.r[i] + beta*s.p[i]
		}
	}
	return it
}

// runSolve is the solve workload: rounds of one CG solve per matrix of
// the set until the run's time is up; every solve is checked against the
// oracle residual and the known solution.
func runSolve(cfg runConfig, r *childResult) error {
	tr := cfg.tr
	t0 := time.Now()
	mats, err := setupSolve(cfg.seed, tr)
	if err != nil {
		return err
	}
	r.SetupS = time.Since(t0).Seconds()
	if cfg.setupOnly {
		return nil
	}
	mark := markEngine()
	var (
		lat    []float64
		rounds roundTimes
		req    uint64
		iters  = make([]int, len(mats))
		states = make([]cgState, len(mats))
		mul    = make([][]float64, len(mats)) // per-call multiply seconds
		solves = make([][]float64, len(mats)) // per-solve seconds
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for round := 0; len(lat) < minOps || time.Now().Before(deadline); round++ {
		t := tr
		if round%2 == 1 {
			t = nil // traced runs alternate traced and untraced rounds
		}
		roundStart := time.Now()
		for i := range mats {
			m := &mats[i]
			req++
			root := t.begin("cg.solve", -1, req)
			s0 := time.Now()
			it := cg(m, &states[i], t, root, req, &mul[i])
			d := time.Since(s0).Seconds()
			t.end(root)
			lat = append(lat, d)
			solves[i] = append(solves[i], d)
			r.Attempted++
			iters[i] = it
			if it >= cgMaxIter {
				r.fail("%s: no convergence in %d iterations", m.name, it)
				continue
			}
			if res := relResidual(m.a, states[i].x, m.b); !(res <= 10*cgTol) {
				r.fail("%s: residual %.3g > %.3g", m.name, res, 10*cgTol)
			} else if e := relError(states[i].x, m.xstar); !(e <= 1e3*cgTol) {
				r.fail("%s: error vs known solution %.3g > %.3g", m.name, e, 1e3*cgTol)
			}
		}
		if tr != nil {
			rounds.add(t != nil, time.Since(roundStart))
		}
	}
	// Rates use each matrix's median call and median solve, so a burst
	// of host noise moves them less than a mean would.
	var work, mulS, solveS float64
	for i, m := range mats {
		work += flops(int64(m.a.NNZ()), 1)
		mulS += median(mul[i])
		solveS += median(solves[i])
		r.note("solve %-9s rows=%d nnz=%d csr=%.1fMB format=%s iterations=%d solve_p50=%.1fms multiply_p50=%.3fms",
			m.name, m.a.Rows, m.a.NNZ(), m.a.FootprintMB(), m.f.Chosen(), iters[i], 1e3*median(solves[i]), 1e3*median(mul[i]))
	}
	if err := latencyMetrics(r, lat); err != nil {
		return err
	}
	r.Metrics["multiply_gflops"] = work / mulS / 1e9
	r.Metrics["ops_per_s"] = float64(len(mats)) / solveS
	r.Metrics["peak_rss_mb"] = selfPeakRSSMB()
	if tr == nil {
		return nil
	}
	engineLayers(r, mark)
	overhead(r, rounds)
	r.Layers["gen.generate_s"] = tr.total("gen.generate")
	r.Layers["selector.auto_s"] = tr.total("selector.auto")
	ins := make([]sweepInput, len(mats))
	for i, m := range mats {
		ins[i] = sweepInput{name: m.name, a: m.a, pick: m.f.Chosen(), k: 1}
	}
	return sweepInto(r, tr, ins)
}

// sweepInto runs the layer sweep and merges its metrics and notes.
func sweepInto(r *childResult, t *tracer, ins []sweepInput) error {
	m, notes, err := layerSweep(t, ins)
	if err != nil {
		return err
	}
	for k, v := range m {
		r.Layers[k] = v
	}
	r.Notes = append(r.Notes, notes...)
	return nil
}
