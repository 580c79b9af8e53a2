package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/update"
)

// Update workload shape. One round replays updateCrossings times the
// default compaction threshold in batches of updateBatch cell updates,
// each batch followed by one k = updateK fused multiply, and ends with an
// explicit Compact.
const (
	updateK         = 8
	updateBatch     = 2048
	updateCrossings = 4
	updatePool      = 32768 // distinct cells the script touches
	updateCheckOdds = 4     // one multiply in this many is checked
)

// poolCell is one cell of the script's pool with its base value.
type poolCell struct {
	r, c int32
	base float64
}

// mirror is the benchmark's own account of the matrix under updates: the
// untouched base plus the current value of every pool cell. The script
// is sequential, so every multiply must equal mirror·X up to
// reassociation. The overlay keeps each update as an additive entry
// until a compaction folds it, and a multiply sums those entries one by
// one, so the terms being reassociated are the entries, not the cell's
// net value: hist bounds their size.
type mirror struct {
	base  *matrix.CSR // read only; the updatable matrix retains it too
	pool  []poolCell
	byRow []int // pool indices ordered by row
	cur   []float64
	hist  []float64 // per cell: Σ|entry| since the last explicit Compact
	x     []float64 // the fixed k-vector block every multiply uses
	yBase []float64 // base·x, from the oracle
}

// newMirror picks a pool of size distinct cells, half existing nonzeros
// and half new positions; size must be well below the matrix's cell count.
func newMirror(m *matrix.CSR, size int, seed int64) *mirror {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]int32]bool{}
	mr := &mirror{base: m}
	for len(mr.pool) < size {
		r := int32(rng.Intn(m.Rows))
		var c int32
		cols, vals := m.Row(int(r))
		if len(mr.pool)%2 == 0 && len(cols) > 0 {
			c = cols[rng.Intn(len(cols))]
		} else {
			c = int32(rng.Intn(m.Cols))
		}
		key := [2]int32{r, c}
		if seen[key] {
			continue
		}
		seen[key] = true
		base := 0.0
		for j, cc := range cols {
			if cc == c {
				base += vals[j]
			}
		}
		mr.byRow = append(mr.byRow, len(mr.pool))
		mr.pool = append(mr.pool, poolCell{r, c, base})
		mr.cur = append(mr.cur, base)
		mr.hist = append(mr.hist, 0)
	}
	sort.Slice(mr.byRow, func(a, b int) bool { return mr.pool[mr.byRow[a]].r < mr.pool[mr.byRow[b]].r })
	mr.x = seededVector(m.Cols*updateK, subSeed(seed, 1))
	mr.yBase = make([]float64, m.Rows*updateK)
	oracleMul(m, mr.x, updateK, mr.yBase, nil)
	return mr
}

// check compares a multiply result, row by row, against base·x plus the
// pool deltas. |want| ≤ |A|·|x|, so an output within the tolerance of
// |want| passes at once; only the rest need their row's magnitude.
func (mr *mirror) check(y []float64) error {
	if len(y) != len(mr.yBase) {
		return fmt.Errorf("length %d, want %d", len(y), len(mr.yBase))
	}
	var want, mag [updateK]float64
	next := 0
	for i := 0; i < mr.base.Rows; i++ {
		lo := next
		for next < len(mr.byRow) && int(mr.pool[mr.byRow[next]].r) == i {
			next++
		}
		cells := mr.byRow[lo:next]
		copy(want[:], mr.yBase[i*updateK:])
		for _, j := range cells {
			d := mr.cur[j] - mr.pool[j].base
			for t, xv := range mr.xcol(j) {
				want[t] += d * xv
			}
		}
		got := y[i*updateK : (i+1)*updateK]
		pass := true
		for t := range want {
			pass = pass && math.Abs(got[t]-want[t]) <= reassocTol*math.Abs(want[t])
		}
		if pass {
			continue
		}
		clear(mag[:])
		cols, vals := mr.base.Row(i)
		for p, c := range cols {
			for t, xv := range mr.x[int(c)*updateK : int(c)*updateK+updateK] {
				mag[t] += math.Abs(vals[p] * xv)
			}
		}
		for _, j := range cells {
			d, h := mr.cur[j]-mr.pool[j].base, mr.hist[j]
			for t, xv := range mr.xcol(j) {
				mag[t] += math.Abs(d*xv) + math.Abs(h*xv)
			}
		}
		if err := compareWithin(got, want[:], mag[:]); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// xcol is the k-vector block's entries at pool cell j's column.
func (mr *mirror) xcol(j int) []float64 {
	c := int(mr.pool[j].c)
	return mr.x[c*updateK : c*updateK+updateK]
}

// setupUpdate generates the base, builds it updatable with default
// options at K = 8 and takes a first multiply.
func setupUpdate(seed int64, t *tracer) (*update.Updatable, *matrix.CSR, error) {
	id := t.begin("gen.generate", -1, 0)
	m, err := generate(updatePars(seed))
	t.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("generate: %w", err)
	}
	id = t.begin("selector.auto", -1, 0)
	u, err := update.New(m, update.Options{K: updateK})
	t.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("updatable: %w", err)
	}
	x := seededVector(m.Cols*updateK, 1)
	y := make([]float64, m.Rows*updateK)
	id = t.begin("update.multiply_many", -1, 0)
	u.MultiplyMany(y, x, updateK)
	t.end(id)
	return u, m, nil
}

// runUpdate is the update workload.
func runUpdate(cfg runConfig, r *childResult) error {
	tr := cfg.tr
	t0 := time.Now()
	u, m, err := setupUpdate(cfg.seed, tr)
	if err != nil {
		return err
	}
	r.SetupS = time.Since(t0).Seconds()
	if cfg.setupOnly {
		return nil
	}
	pick := u.Base().(*formats.Auto).Chosen()
	mr := newMirror(m, updatePool, subSeed(cfg.seed, 21))
	minC, ratio := update.CompactionThreshold()
	threshold := max(float64(minC), ratio*float64(m.NNZ()))
	batches := int(math.Ceil(updateCrossings * threshold / updateBatch))

	mark := markEngine()
	var (
		lat, rates, batchS  []float64
		compactMs, freezeMs []float64
		rounds              roundTimes
		inApply             time.Duration
		ops                 int
		lastComp            uint64
		req                 uint64
		y                   = make([]float64, m.Rows*updateK)
		kinds               = make([]int, updateBatch)
		idx                 = make([]int, updateBatch)
		vals                = make([]float64, updateBatch)
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for round := 0; len(lat) < minOps || time.Now().Before(deadline); round++ {
		t := tr
		if round%2 == 1 {
			t = nil
		}
		rng := rand.New(rand.NewSource(subSeed(cfg.seed, 1000+uint64(round))))
		roundStart := time.Now()
		for b := 0; b < batches; b++ {
			req++
			// Draw the batch first so only the update calls are timed.
			for i := range kinds {
				kinds[i], idx[i], vals[i] = rng.Intn(10), rng.Intn(updatePool), 2*rng.Float64()-1
			}
			id := t.begin("update.apply_batch", -1, req)
			a0 := time.Now()
			for i, kind := range kinds {
				pc := mr.pool[idx[i]]
				switch {
				case kind < 5:
					u.Set(int(pc.r), int(pc.c), vals[i])
				case kind < 8:
					u.Add(int(pc.r), int(pc.c), vals[i])
				default:
					u.Delete(int(pc.r), int(pc.c))
				}
			}
			ad := time.Since(a0)
			t.end(id)
			inApply += ad
			batchS = append(batchS, ad.Seconds())
			ops += updateBatch
			for i, kind := range kinds {
				j := idx[i]
				next := 0.0 // Delete
				switch {
				case kind < 5:
					next = vals[i]
				case kind < 8:
					next = mr.cur[j] + vals[i]
				}
				mr.hist[j] += math.Abs(next - mr.cur[j])
				mr.cur[j] = next
			}

			nnz := u.NNZ()
			id = t.begin("update.multiply_many", -1, req)
			m0 := time.Now()
			u.MultiplyMany(y, mr.x, updateK)
			d := time.Since(m0)
			t.end(id)
			lat = append(lat, d.Seconds())
			rates = append(rates, flops(nnz, updateK)/d.Seconds())
			r.Attempted++
			if rng.Intn(updateCheckOdds) == 0 {
				if err := mr.check(y); err != nil {
					r.fail("round %d batch %d: %v", round, b, err)
				}
			}
			if st := u.Stats(); st.Compactions > lastComp {
				lastComp = st.Compactions
				compactMs = append(compactMs, float64(st.LastCompactNs)/1e6)
				freezeMs = append(freezeMs, float64(st.LastFreezeNs)/1e6)
			}
		}
		id := t.begin("update.compact", -1, req)
		if err := u.Compact(); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
		t.end(id)
		clear(mr.hist) // every entry is folded into the base now
		if tr != nil {
			rounds.add(t != nil, time.Since(roundStart))
		}
	}
	st := u.Stats()
	r.note("update rows=%d nnz=%d csr=%.1fMB base=%s now=%s batches/round=%d batch=%d threshold=%.0f compactions=%d",
		m.Rows, m.NNZ(), m.FootprintMB(), pick, st.BaseFormat, batches, updateBatch, threshold, st.Compactions)
	if err := latencyMetrics(r, lat); err != nil {
		return err
	}
	// Median call and median batch, so a burst of host noise moves the
	// rates less than a mean would.
	r.Metrics["multiply_gflops"] = median(rates) / 1e9
	r.Metrics["ops_per_s"] = updateBatch / median(batchS)
	r.Metrics["peak_rss_mb"] = selfPeakRSSMB()
	if tr == nil {
		return nil
	}
	engineLayers(r, mark)
	overhead(r, rounds)
	r.Layers["gen.generate_s"] = tr.total("gen.generate")
	r.Layers["selector.auto_s"] = tr.total("selector.auto")
	r.Layers["update.apply_ns"] = inApply.Seconds() / float64(ops) * 1e9
	r.Layers["update.fused_ms_p50"] = median(lat) * 1e3
	r.Layers["update.compactions"] = float64(st.Compactions)
	r.Layers["update.compact_ms"] = median(compactMs)
	r.Layers["update.freeze_ms"] = median(freezeMs)
	r.Layers["update.commit_parks"] = float64(st.CommitParks)
	return sweepInto(r, tr, []sweepInput{{name: "update", a: m, pick: pick, k: updateK}})
}
