package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/selector"
)

// sweepInput is one matrix a traced run measures layer by layer: the
// matrix, the format default selection picked for it, and the
// right-hand-side count its workload multiplies with.
type sweepInput struct {
	name string
	a    *matrix.CSR
	pick string
	k    int
}

// probeRepeats is how many Probe calls selector.probe_agreement compares.
const probeRepeats = 5

// timeCalls runs fn until at least minCalls calls and minDur have passed
// and returns the median seconds per call.
func timeCalls(fn func(), minCalls int, minDur time.Duration) float64 {
	fn() // warm: plans, scratch and pages
	var ds []float64
	start := time.Now()
	for len(ds) < minCalls || time.Since(start) < minDur {
		t0 := time.Now()
		fn()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds)
}

// multiplyFn returns one k-vector multiply of f on seeded inputs.
func multiplyFn(f formats.Format, k int) func() {
	workers := runtime.GOMAXPROCS(0)
	x := seededVector(f.Cols()*k, int64(f.Cols()))
	y := make([]float64, f.Rows()*k)
	if k == 1 {
		return func() { f.SpMVParallel(x, y, workers) }
	}
	return func() { f.MultiplyMany(y, x, k) }
}

// layerSweep measures the selector, formats and kernel layers on each
// input, outside any workload loop. It returns the per-layer metrics it
// owns and human-readable notes.
func layerSweep(t *tracer, ins []sweepInput) (map[string]float64, []string, error) {
	spec := device.HostSpec()
	var (
		extract, rank, build, spmv, spmm, bytes, traffic float64
		nnz                                              int64
		retained, agree                                  float64
		notes                                            []string
	)
	for _, in := range ins {
		id := t.begin("core.extract", -1, 0)
		fv := core.Extract(in.a)
		extract += t.end(id).Seconds()

		id = t.begin("selector.shortlist", -1, 0)
		short := selector.Shortlist(spec, fv, in.k, selector.DefaultShortlist)
		rank += t.end(id).Seconds()

		b, ok := formats.Lookup(in.pick)
		if !ok {
			return nil, nil, fmt.Errorf("sweep %s: unknown format %q", in.name, in.pick)
		}
		id = t.begin("formats.build", -1, 0)
		f, err := b.Build(in.a)
		build += t.end(id).Seconds()
		if err != nil {
			return nil, nil, fmt.Errorf("sweep %s: build %s: %w", in.name, in.pick, err)
		}
		s1 := timeCalls(multiplyFn(f, 1), 10, 100*time.Millisecond)
		s8 := timeCalls(multiplyFn(f, 8), 10, 100*time.Millisecond)
		spmv += s1
		spmm += s8
		bytes += float64(f.Bytes())
		nnz += f.NNZ()
		traffic += spmvBytes(f.Bytes(), f.Rows(), f.Cols(), 1)

		// Retained performance: the default pick against the best format
		// that builds, all timed the same way at the workload's k.
		best, bestName, pickRate := 0.0, "", 0.0
		for _, rb := range formats.Registry() {
			if skipForMemory(rb.Name, in.a) {
				continue
			}
			g, err := rb.Build(in.a)
			if err != nil {
				continue
			}
			rate := flops(g.NNZ(), in.k) / timeCalls(multiplyFn(g, in.k), 5, 60*time.Millisecond)
			if rate > best {
				best, bestName = rate, rb.Name
			}
			if rb.Name == in.pick {
				pickRate = rate
			}
		}
		r := pickRate / best
		retained += r

		winners := map[string]int{}
		top := 0
		for i := 0; i < probeRepeats; i++ {
			if len(short) < 2 {
				winners[short[0]]++
			} else {
				w, _ := selector.Probe(in.a, short, selector.ProbeOptions{K: in.k})
				winners[w]++
			}
		}
		for _, n := range winners {
			top = max(top, n)
		}
		agree += float64(top) / probeRepeats
		notes = append(notes, fmt.Sprintf("layer %-9s k=%d pick=%s best=%s retained=%.3f probe winners=%v shortlist=%v spmv=%.3fms spmm8=%.3fms",
			in.name, in.k, in.pick, bestName, r, winners, short, s1*1e3, s8*1e3))
	}
	n := float64(len(ins))
	return map[string]float64{
		"core.extract_s":           extract,
		"selector.rank_s":          rank,
		"selector.model_retained":  retained / n,
		"selector.probe_agreement": agree / n,
		"formats.build_s":          build,
		"formats.bytes_per_nnz":    bytes / float64(nnz),
		"formats.spmv_ms_p50":      spmv * 1e3,
		"formats.spmm_ms_p50":      spmm * 1e3,
		// Divided by host.triad_gbs in the parent, which measures it.
		"formats.spmv_bytes_per_s": traffic / spmv,
	}, notes, nil
}

// skipForMemory keeps the retained sweep inside a modest memory budget:
// ELL pads every row to the longest, so on a skewed matrix it would build
// a structure gigabytes large only to lose.
func skipForMemory(name string, a *matrix.CSR) bool {
	return name == "ELL" && int64(a.Rows)*int64(a.MaxRowNNZ()) > 64<<20
}
