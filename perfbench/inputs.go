package main

import (
	"math"
	"math/rand"
	"runtime"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// Every input is a function of the run's seed: the same seed gives the
// same matrices, vectors and update script.

// subSeed derives an independent stream seed for input idx (splitmix64).
func subSeed(seed int64, idx uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + idx*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// spdShift sets the conditioning of the solve matrices: after Jacobi
// scaling every off-diagonal row sum is 1/(1+spdShift), so by Gershgorin
// the spectrum lies in [1-1/(1+s), 1+1/(1+s)] and κ ≤ (2+s)/s ≈ 7.7. CG
// then converges in a few dozen iterations whatever the seed.
const spdShift = 0.3

// spdFrom turns the off-diagonal pattern of g into a symmetric positive
// definite matrix with the same (symmetrized) structure: S = -|G| - |G|ᵀ
// off the diagonal, D = (1+spdShift)·rowsum|S|, A = I + D^-½ S D^-½.
func spdFrom(g *matrix.CSR) *matrix.CSR {
	coo := matrix.NewCOO(g.Rows, g.Cols, 2*g.NNZ())
	for i := 0; i < g.Rows; i++ {
		for p := g.RowPtr[i]; p < g.RowPtr[i+1]; p++ {
			c := g.ColIdx[p]
			if int(c) == i {
				continue
			}
			v := -math.Abs(g.Val[p]) - 1e-3
			coo.Append(int32(i), c, v)
			coo.Append(c, int32(i), v)
		}
	}
	s := coo.ToCSR()
	return jacobiSPD(s)
}

// jacobiSPD adds the dominant diagonal to the symmetric off-diagonal
// matrix s and scales it to unit diagonal (see spdFrom).
func jacobiSPD(s *matrix.CSR) *matrix.CSR {
	d := make([]float64, s.Rows)
	for i := range d {
		sum := 0.0
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			sum += math.Abs(s.Val[p])
		}
		d[i] = (1 + spdShift) * sum
		if d[i] == 0 {
			d[i] = 1
		}
	}
	a := &matrix.CSR{Rows: s.Rows, Cols: s.Cols,
		RowPtr: make([]int32, s.Rows+1),
		ColIdx: make([]int32, 0, s.NNZ()+s.Rows),
		Val:    make([]float64, 0, s.NNZ()+s.Rows)}
	for i := 0; i < s.Rows; i++ {
		placed := false
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			c := s.ColIdx[p]
			if !placed && int(c) > i {
				a.ColIdx = append(a.ColIdx, int32(i))
				a.Val = append(a.Val, 1)
				placed = true
			}
			a.ColIdx = append(a.ColIdx, c)
			a.Val = append(a.Val, s.Val[p]/math.Sqrt(d[i]*d[c]))
		}
		if !placed {
			a.ColIdx = append(a.ColIdx, int32(i))
			a.Val = append(a.Val, 1)
		}
		a.RowPtr[i+1] = int32(len(a.Val))
	}
	return a
}

// stencil27 is the off-diagonal part of a 27-point stencil on an n³ grid
// with seeded symmetric weights: the regular, banded, bandwidth-bound
// member of the solve set.
func stencil27(n int, seed int64) *matrix.CSR {
	rows := n * n * n
	s := &matrix.CSR{Rows: rows, Cols: rows,
		RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, 0, rows*26),
		Val:    make([]float64, 0, rows*26)}
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				i := (z*n+y)*n + x
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							zz, yy, xx := z+dz, y+dy, x+dx
							if (dz == 0 && dy == 0 && dx == 0) || zz < 0 || yy < 0 || xx < 0 || zz >= n || yy >= n || xx >= n {
								continue
							}
							j := (zz*n+yy)*n + xx
							lo, hi := i, j
							if lo > hi {
								lo, hi = hi, lo
							}
							// The weight hashes the unordered pair, so S is symmetric.
							w := 0.5 + float64(uint64(subSeed(seed, uint64(lo)*uint64(rows)+uint64(hi)))%1024)/1024
							s.ColIdx = append(s.ColIdx, int32(j))
							s.Val = append(s.Val, -w)
						}
					}
				}
				s.RowPtr[i+1] = int32(len(s.Val))
			}
		}
	}
	return s
}

// solveInput is one member of the solve set.
type solveInput struct {
	name  string // bottleneck class
	p     gen.Params
	grid  int // > 0: 27-point stencil on grid³ instead of the generator
	class string
}

// solveSet is the solve workload's matrix set: one member per bottleneck
// class of the paper, each about 2M nonzeros (22-24 MB of CSR, far above
// a 2 MB L2), sized so a CG solve takes tens of milliseconds. The
// scattered member's x (2.4 MB) also exceeds L2, so its gathers miss.
func solveSet(seed int64) []solveInput {
	return []solveInput{
		{name: "banded", grid: 42, class: "bandwidth: 27-point stencil, 42³ rows"},
		// Columns span the whole matrix: with a narrow window the long rows'
		// transposed entries pile into one band of rows whose place depends
		// on the seed, and the matrix's shape (and its kernels' balance)
		// with it.
		{name: "skewed", class: "load imbalance: generated, row-length skew ~300, symmetrized",
			p: gen.Params{Rows: 120000, Cols: 120000, AvgNNZPerRow: 8, StdNNZPerRow: 2,
				SkewCoeff: 300, BWScaled: 1, CrossRowSim: 0.3, AvgNumNeigh: 0.8, Seed: subSeed(seed, 2)}},
		{name: "scattered", class: "memory latency: generated, uniform random columns, symmetrized",
			p: gen.Params{Rows: 300000, Cols: 300000, AvgNNZPerRow: 2.5, StdNNZPerRow: 1,
				BWScaled: 1, Seed: subSeed(seed, 3)}},
	}
}

// servePars is the matrix uploaded to the daemon: 20k rows so a request
// body of one dense vector is ~0.4 MB of JSON, which makes transport and
// encoding the dominant cost of a served multiply.
func servePars(seed int64) gen.Params {
	return gen.Params{Rows: 20000, Cols: 20000, AvgNNZPerRow: 16, StdNNZPerRow: 4,
		SkewCoeff: 2, BWScaled: 0.2, CrossRowSim: 0.3, AvgNumNeigh: 1.0, Seed: subSeed(seed, 10)}
}

// updatePars is the base matrix of the update workload (~1M nonzeros,
// 12 MB of CSR).
func updatePars(seed int64) gen.Params {
	return gen.Params{Rows: 100000, Cols: 100000, AvgNNZPerRow: 10, StdNNZPerRow: 3,
		SkewCoeff: 4, BWScaled: 0.05, CrossRowSim: 0.4, AvgNumNeigh: 1.0, Seed: subSeed(seed, 20)}
}

// generate runs the paper's generator at full parallelism.
func generate(p gen.Params) (*matrix.CSR, error) {
	return gen.GenerateParallel(p, runtime.GOMAXPROCS(0))
}

// seededVector returns n values uniform in [-1, 1).
func seededVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}
