package main

import (
	"fmt"
	"math"

	"repro/internal/matrix"
)

// The oracle is the benchmark's own reference: plain loops over the CSR
// arrays, independent of every kernel in internal/formats, so a kernel,
// dispatch or engine fault cannot hide by agreeing with itself.

// oracleMul computes Y = A·X for k row-major right-hand sides (X[c*k+t]
// is vector t at column c) and, when abs is non-nil, the magnitude
// |A|·|X| that scales the reassociation tolerance of each output.
func oracleMul(a *matrix.CSR, x []float64, k int, y, abs []float64) {
	for i := 0; i < a.Rows; i++ {
		out := y[i*k : (i+1)*k]
		for t := range out {
			out[t] = 0
		}
		var mag []float64
		if abs != nil {
			mag = abs[i*k : (i+1)*k]
			for t := range mag {
				mag[t] = 0
			}
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			v := a.Val[p]
			xc := x[int(a.ColIdx[p])*k : int(a.ColIdx[p])*k+k]
			for t, xv := range xc {
				out[t] += v * xv
				if mag != nil {
					mag[t] += math.Abs(v * xv)
				}
			}
		}
	}
}

// reassocTol is the relative tolerance, against |A|·|x| of each output,
// within which a kernel result must match the oracle. Kernels may sum a
// row in any order (SIMD partial sums, merge-path carries, coalesced
// batches); the worst-case error of reordering a sum of n terms is about
// n·eps·|A|·|x|, far below this for any row length used here.
const reassocTol = 1e-10

// compareWithin returns an error naming the first output of got that
// differs from want by more than reassocTol·abs (plus a denormal floor).
func compareWithin(got, want, abs []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= reassocTol*abs[i]+1e-300) {
			return fmt.Errorf("output %d = %g, oracle %g (|A||x| = %g)", i, got[i], want[i], abs[i])
		}
	}
	return nil
}

// dot and norm2 are the solver's and the checks' vector reductions.
func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// relResidual is ‖b − A·x‖/‖b‖ computed with the oracle multiply.
func relResidual(a *matrix.CSR, x, b []float64) float64 {
	ax := make([]float64, a.Rows)
	oracleMul(a, x, 1, ax, nil)
	s := 0.0
	for i := range b {
		d := b[i] - ax[i]
		s += d * d
	}
	return math.Sqrt(s) / norm2(b)
}

// relError is ‖x − x*‖/‖x*‖.
func relError(x, xstar []float64) float64 {
	s := 0.0
	for i := range x {
		d := x[i] - xstar[i]
		s += d * d
	}
	return math.Sqrt(s) / norm2(xstar)
}

// flops is the useful work of one multiply: a multiply-add per stored
// nonzero per right-hand side.
func flops(nnz int64, k int) float64 { return 2 * float64(nnz) * float64(k) }

// spmvBytes is the computed memory traffic of one multiply: the format's
// stored bytes read once, the k input vectors read once and the k output
// vectors written once. It ignores cache misses on x, so it is a floor.
func spmvBytes(formatBytes int64, rows, cols, k int) float64 {
	return float64(formatBytes) + 8*float64(k)*float64(rows+cols)
}
