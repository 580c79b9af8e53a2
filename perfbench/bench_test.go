package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/matrix"
)

// small is [[1 0 2] [0 3 0]].
func small(t *testing.T) *matrix.CSR {
	m, err := matrix.NewCSR(2, 3, []int32{0, 2, 3}, []int32{0, 2, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOracleHandComputed(t *testing.T) {
	m := small(t)
	y, abs := make([]float64, 2), make([]float64, 2)
	oracleMul(m, []float64{1, -2, 3}, 1, y, abs)
	if y[0] != 7 || y[1] != -6 {
		t.Fatalf("k=1: got %v, want [7 -6]", y)
	}
	if abs[0] != 7 || abs[1] != 6 {
		t.Fatalf("k=1 magnitudes: got %v, want [7 6]", abs)
	}
	// k = 2, row-major: vector 0 is (1,-2,3), vector 1 is (10,20,30).
	y2 := make([]float64, 4)
	oracleMul(m, []float64{1, 10, -2, 20, 3, 30}, 2, y2, nil)
	if want := []float64{7, 70, -6, 60}; !equal(y2, want) {
		t.Fatalf("k=2: got %v, want %v", y2, want)
	}
}

func TestCompareWithin(t *testing.T) {
	want, abs := []float64{1, 2}, []float64{1, 2}
	if err := compareWithin([]float64{1 + 1e-14, 2}, want, abs); err != nil {
		t.Fatalf("reassociation-sized difference rejected: %v", err)
	}
	if err := compareWithin([]float64{1, 2.001}, want, abs); err == nil {
		t.Fatal("wrong output accepted")
	}
	if err := compareWithin([]float64{math.NaN(), 2}, want, abs); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestResidualAndError(t *testing.T) {
	m, err := matrix.NewCSR(2, 2, []int32{0, 1, 2}, []int32{0, 1}, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{2, 4}
	if r := relResidual(m, []float64{1, 1}, b); r != 0 {
		t.Fatalf("exact solution residual %g", r)
	}
	if r := relResidual(m, []float64{0, 0}, b); r != 1 {
		t.Fatalf("zero guess residual %g, want 1", r)
	}
	if e := relError([]float64{1, 1}, []float64{1, 1}); e != 0 {
		t.Fatalf("error %g", e)
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.9); !ok || v != 90 {
		t.Fatalf("100 samples: p90 = %v, %v; want 90 with 10 beyond", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Fatal("99 samples leave 9 beyond p90; must not be reported")
	}
	if v, ok := percentile(xs[:30], 0.5); !ok || v != 15 {
		t.Fatalf("p50 of 30: %v, %v; want 15 with 15 beyond", v, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median %v", m)
	}
}

func TestFlopAndByteAccounting(t *testing.T) {
	if f := flops(10, 1); f != 20 {
		t.Fatalf("k=1 flops %v", f)
	}
	if f := flops(10, 8); f != 160 {
		t.Fatalf("k=8 flops %v", f)
	}
	// 120 stored bytes, x of 5 and y of 4 doubles per vector.
	if b := spmvBytes(120, 4, 5, 1); b != 120+8*9 {
		t.Fatalf("k=1 bytes %v", b)
	}
	if b := spmvBytes(120, 4, 5, 8); b != 120+8*8*9 {
		t.Fatalf("k=8 bytes %v", b)
	}
}

func TestJacobiSPD(t *testing.T) {
	a := spdFrom(matrix.Random(200, 200, 0.05, 3))
	n := a.Rows
	d := a.ToDense()
	for i := 0; i < n; i++ {
		if d.At(i, i) != 1 {
			t.Fatalf("diagonal %d = %v", i, d.At(i, i))
		}
		for j := 0; j < i; j++ {
			if math.Abs(d.At(i, j)-d.At(j, i)) > 1e-15 {
				t.Fatalf("not symmetric at %d,%d", i, j)
			}
		}
	}
	// Cholesky succeeds only on a symmetric positive definite matrix.
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		s := d.At(j, j)
		for k := 0; k < j; k++ {
			s -= l[j*n+k] * l[j*n+k]
		}
		if s <= 0 {
			t.Fatalf("not positive definite at pivot %d", j)
		}
		l[j*n+j] = math.Sqrt(s)
		for i := j + 1; i < n; i++ {
			s := d.At(i, j)
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = s / l[j*n+j]
		}
	}
	// Rayleigh quotients stay inside the Gershgorin bound of spdFrom.
	lo, hi := 1-1/(1+spdShift), 1+1/(1+spdShift)
	rng := rand.New(rand.NewSource(2))
	ax := make([]float64, n)
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		oracleMul(a, x, 1, ax, nil)
		if q := dot(x, ax) / dot(x, x); q < lo || q > hi {
			t.Fatalf("Rayleigh quotient %v outside [%v, %v]", q, lo, hi)
		}
	}
}

func TestMirrorTracksUpdates(t *testing.T) {
	m := matrix.Random(60, 50, 0.1, 5)
	mr := newMirror(m, 200, 9)
	d := m.ToDense()
	rng := rand.New(rand.NewSource(1))
	for i := range mr.pool {
		if rng.Intn(3) == 0 {
			mr.cur[i] = rng.Float64()
			mr.hist[i] = math.Abs(mr.cur[i] - mr.pool[i].base)
			d.Set(int(mr.pool[i].r), int(mr.pool[i].c), mr.cur[i])
		}
	}
	y := make([]float64, m.Rows*updateK)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			for k := 0; k < updateK; k++ {
				y[r*updateK+k] += d.At(r, c) * mr.x[c*updateK+k]
			}
		}
	}
	if err := mr.check(y); err != nil {
		t.Fatalf("dense product of the updated matrix rejected: %v", err)
	}
	// A cell set and then deleted since the last compaction: its two
	// overlay entries cancel, leaving only their rounding.
	i := 0
	for mr.cur[i] != mr.pool[i].base {
		i++
	}
	mr.hist[i] = 2
	r, c := int(mr.pool[i].r), int(mr.pool[i].c)
	y[r*updateK] += 2 * mr.x[c*updateK] * 1e-16
	if err := mr.check(y); err != nil {
		t.Fatalf("rounding of cancelled overlay entries rejected: %v", err)
	}
	y[3] += 1e-3
	if err := mr.check(y); err == nil {
		t.Fatal("perturbed product accepted")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the benchmark %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", what, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
