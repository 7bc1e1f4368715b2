package executor

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/regexlang"
)

// allocSeries builds a deterministic candidate collection big enough that
// per-candidate allocations dominate any per-run fixed cost.
func allocSeries(n, points int) []dataset.Series {
	rng := rand.New(rand.NewSource(7))
	series := make([]dataset.Series, n)
	for i := range series {
		s := randomSeries(rng, points)
		s.Z = fmt.Sprintf("s%03d", i)
		series[i] = s
	}
	return series
}

// TestSteadyStateAllocs pins the scoring kernel's allocation budget:
// steady-state Plan.RunGroupedContext must not allocate per candidate beyond the
// few escaping result slices (the winning range assignment and BreakXs) —
// everything else lives in the pooled per-worker evalCtx. Before the
// pooled kernel the SegmentTree path allocated ~400 heap objects per
// candidate; the budget below would fail by an order of magnitude if
// per-candidate garbage crept back in.
func TestSteadyStateAllocs(t *testing.T) {
	const (
		nSeries = 16
		points  = 120
		// Per run: slots/heap/result bookkeeping plus ~3 escaping slices
		// per candidate. 10 × nSeries is an order of magnitude below the
		// pre-pooling kernel's budget.
		budget = 10 * nSeries
	)
	series := allocSeries(nSeries, points)
	for _, alg := range []struct {
		name    string
		a       Algorithm
		pruning bool
	}{{"DP", AlgDP, false}, {"SegmentTree", AlgSegmentTree, false},
		// The pruned pipeline's per-candidate bound check must be free in
		// steady state: slope stats are memoized on the Viz (filled during
		// warm-up) and the pin/run scratch lives on the pooled evalCtx.
		// Only per-run bookkeeping (slots, order, heaps) may allocate,
		// and that is covered by the same budget.
		{"SegmentTreePruned", AlgSegmentTree, true}} {
		t.Run(alg.name, func(t *testing.T) {
			opts := seqOpts()
			opts.Algorithm = alg.a
			opts.Pruning = alg.pruning
			plan, err := Compile(regexlang.MustParse("u ; d ; u"), opts)
			if err != nil {
				t.Fatal(err)
			}
			vizs := plan.GroupSeries(series)
			if len(vizs) != nSeries {
				t.Fatalf("grouped %d vizs, want %d", len(vizs), nSeries)
			}
			// Warm the context pool and the per-viz memos.
			if _, err := plan.RunGroupedContext(context.Background(), vizs); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := plan.RunGroupedContext(context.Background(), vizs); err != nil {
					t.Fatal(err)
				}
			})
			if avg > budget {
				t.Errorf("steady-state RunGroupedContext allocates %.0f objects per run, budget %d", avg, budget)
			}
		})
	}
}

// TestGroupSeriesAllocs pins GROUP's allocation count: per viz the Viz
// itself, one backing array shared by NX and NY, and the prefix — no
// per-point bins — plus the result slice once per call. Push-down skip
// masks (none here) would add one more per viz.
func TestGroupSeriesAllocs(t *testing.T) {
	const (
		nSeries = 64
		budget  = 3*nSeries + 1
	)
	series := allocSeries(nSeries, 70)
	plan, err := Compile(regexlang.MustParse("u ; d ; u"), seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	var vizs []*Viz
	avg := testing.AllocsPerRun(5, func() { vizs = plan.GroupSeries(series) })
	if len(vizs) != nSeries {
		t.Fatalf("grouped %d vizs, want %d", len(vizs), nSeries)
	}
	if avg > budget {
		t.Errorf("GroupSeries allocates %.0f objects for %d series, budget %d", avg, nSeries, budget)
	}
}

// TestSteadyStateAllocsBatch extends the steady-state budget to the batch
// pipeline: the per-run bookkeeping (per-query records and heaps) scales
// with Q, while per-candidate evaluation stays on
// the pooled evalCtx exactly as in the single-plan kernel. The budget is
// the single-plan budget times Q plus the same per-run overhead — if
// per-candidate garbage crept into the shared-memo path it would blow
// through by an order of magnitude.
func TestSteadyStateAllocsBatch(t *testing.T) {
	const (
		nSeries = 16
		points  = 120
		nq      = 4
		budget  = 12 * nSeries * nq
	)
	series := allocSeries(nSeries, points)
	queries := []string{"u ; d ; u", "d ; u ; d", "u ; d", "u ; d ; u ; d"}
	for _, pruning := range []bool{false, true} {
		t.Run(fmt.Sprintf("pruning=%v", pruning), func(t *testing.T) {
			opts := seqOpts()
			opts.Algorithm = AlgSegmentTree
			opts.Pruning = pruning
			plans := make([]*Plan, nq)
			for i, q := range queries {
				p, err := Compile(regexlang.MustParse(q), opts)
				if err != nil {
					t.Fatal(err)
				}
				plans[i] = p
			}
			mp, err := NewMultiPlan(plans)
			if err != nil {
				t.Fatal(err)
			}
			vizs := plans[0].GroupSeries(series)
			if _, err := mp.RunGroupedContext(context.Background(), vizs); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := mp.RunGroupedContext(context.Background(), vizs); err != nil {
					t.Fatal(err)
				}
			})
			if avg > budget {
				t.Errorf("steady-state batch RunGroupedContext allocates %.0f objects per run, budget %d", avg, budget)
			}
		})
	}
}

// TestSteadyStateAllocsIndexed extends the steady-state budget to the
// indexed path every server search takes: best-first traversal over a
// prebuilt shape index, per-leaf member bounding, exact scoring and the
// final selection. Each run may allocate per-run bookkeeping and the
// escaping result slices of scored candidates, but nothing per visited
// leaf or bounded member beyond that — 4 objects per candidate (per
// candidate and query for the batch) leaves room for the records while
// failing on per-leaf garbage.
func TestSteadyStateAllocsIndexed(t *testing.T) {
	const (
		nSeries = 512
		points  = 120
		nq      = 4
	)
	series := allocSeries(nSeries, points)
	queries := []string{"u ; d ; u", "d ; u ; d", "u ; d", "u ; d ; u ; d"}
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			opts := seqOpts()
			opts.Algorithm = AlgSegmentTree
			opts.Pruning = true
			opts.Parallelism = par
			plans := make([]*Plan, nq)
			for i, q := range queries {
				p, err := Compile(regexlang.MustParse(q), opts)
				if err != nil {
					t.Fatal(err)
				}
				plans[i] = p
			}
			mp, err := NewMultiPlan(plans)
			if err != nil {
				t.Fatal(err)
			}
			vizs := plans[0].GroupSeries(series)
			if len(vizs) != nSeries {
				t.Fatalf("grouped %d vizs, want %d", len(vizs), nSeries)
			}
			ix := BuildVizIndex(vizs, par)
			for _, tc := range []struct {
				name   string
				budget int
				run    func() error
			}{
				{"single", 4 * nSeries, func() error { _, err := plans[0].RunIndexedStatsContext(context.Background(), ix, nil); return err }},
				{"batch", 4 * nSeries * nq, func() error { _, err := mp.RunIndexedContext(context.Background(), ix); return err }},
			} {
				if err := tc.run(); err != nil {
					t.Fatal(err)
				}
				avg := testing.AllocsPerRun(5, func() {
					if err := tc.run(); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s: %.0f objects per run", tc.name, avg)
				if avg > float64(tc.budget) {
					t.Errorf("steady-state %s RunIndexed allocates %.0f objects per run, budget %d", tc.name, avg, tc.budget)
				}
			}
		})
	}
}

// TestSteadyStateAllocsQuantifier covers the quantifier hot path (pair
// scores, run detection, run scoring), which allocated per evaluated range
// before the pooled kernel.
func TestSteadyStateAllocsQuantifier(t *testing.T) {
	series := allocSeries(8, 100)
	opts := seqOpts()
	opts.Algorithm = AlgSegmentTree
	plan, err := Compile(regexlang.MustParse("[p=up, m={2,}]"), opts)
	if err != nil {
		t.Fatal(err)
	}
	vizs := plan.GroupSeries(series)
	if _, err := plan.RunGroupedContext(context.Background(), vizs); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := plan.RunGroupedContext(context.Background(), vizs); err != nil {
			t.Fatal(err)
		}
	})
	// The quantifier itself still sorts occurrence scores (one interface
	// allocation per positive evaluation); the budget tolerates that while
	// forbidding the old per-range pair/run slice churn.
	if budget := 60.0 * float64(len(series)); avg > budget {
		t.Errorf("quantifier RunGroupedContext allocates %.0f objects per run, budget %.0f", avg, budget)
	}
}

// TestPooledKernelMatchesFreshContexts: reusing one evalCtx across many
// candidates must give byte-identical scores and ranges to compiling each
// chain in a fresh context.
func TestPooledKernelMatchesFreshContexts(t *testing.T) {
	series := allocSeries(12, 90)
	for _, q := range []string{"u ; d ; u", "[p=up, m={2,}]", "u ; [p=down, x.s=20, x.e=60] ; u"} {
		for _, alg := range []Algorithm{AlgDP, AlgSegmentTree, AlgGreedy} {
			opts := seqOpts()
			opts.Algorithm = alg
			plan, err := Compile(regexlang.MustParse(q), opts)
			if err != nil {
				t.Fatal(err)
			}
			vizs := plan.GroupSeries(series)
			// Pooled path: one worker context reused across all candidates,
			// exactly like a pipeline worker. Fresh path: a new context per
			// candidate, so no buffer ever carries state across candidates.
			reused := newEvalCtx()
			for vi, v := range vizs {
				pooledSc, pooledRanges := evalViz(reused, v, plan.norm, plan.opts, plan.solver)
				freshSc, freshRanges := evalViz(newEvalCtx(), v, plan.norm, plan.opts, plan.solver)
				if pooledSc != freshSc {
					t.Fatalf("%s/%v viz %d: pooled score %v != fresh score %v", q, alg, vi, pooledSc, freshSc)
				}
				if len(pooledRanges) != len(freshRanges) {
					t.Fatalf("%s/%v viz %d: range count differs", q, alg, vi)
				}
				for i := range pooledRanges {
					if pooledRanges[i] != freshRanges[i] {
						t.Fatalf("%s/%v viz %d: range %d %v != %v", q, alg, vi, i, pooledRanges[i], freshRanges[i])
					}
				}
			}
		}
	}
}
