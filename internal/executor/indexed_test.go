package executor

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/gen"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shape"
	"shapesearch/internal/shapeindex"
)

func mustParseAll(queries []string) []shape.Query {
	qs := make([]shape.Query, len(queries))
	for i, q := range queries {
		qs[i] = regexlang.MustParse(q)
	}
	return qs
}

// indexedQueries spans the bound regimes the envelope has to dominate:
// plain chains (one bound group, fuzzy runs), longer chains (narrower span
// floor), alternation (per-alternative max), pinned chains (anchored
// reconstruction, raw-extreme fallback), and quantified units (conservative
// [-1,1] unit bounds).
var indexedQueries = []string{
	"u ; d",
	"u ; d ; u ; d",
	"f ; u ; d",
	"(u ; d) | (d ; u)",
	"[p=up, x.s=0, x.e=10] ; d ; u",
	"[p=up, m={2,}] ; d",
}

// indexedCorpora returns the test corpora: randomized mixed regimes (noise,
// monotone drifts, planted peaks), the separated DriftPeaks corpus the
// benchmarks use, and a degenerate all-same corpus where every envelope
// equals its members.
func indexedCorpora() map[string][]dataset.Series {
	out := map[string][]dataset.Series{}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		out[fmt.Sprintf("mixed-%d", seed)] = mixedCorpus(rng, 100, 64+rng.Intn(48))
	}
	out["driftpeaks"] = gen.DriftPeaksSeries(400, 32, 6, 1)
	flat := make([]dataset.Series, 12)
	for i := range flat {
		flat[i] = mkSeries(fmt.Sprintf("same%02d", i), 1, 2, 3, 2, 1, 2, 3, 2, 1)
	}
	out["uniform"] = flat
	return out
}

// TestIndexedBoundDominatesSound pins the invariant the whole index stands
// on: for every node of the built index and every compiled query, the
// envelope upper bound must be at least every member's sound upper bound.
// If this ever fails, best-first traversal could skip a subtree holding a
// true top-k member and indexed search would silently stop being lossless.
func TestIndexedBoundDominatesSound(t *testing.T) {
	for name, series := range indexedCorpora() {
		t.Run(name, func(t *testing.T) {
			var plans []*Plan
			for _, query := range indexedQueries {
				opts := DefaultOptions()
				opts.Algorithm = AlgSegmentTree
				opts.Pruning = true
				plan, err := Compile(regexlang.MustParse(query), opts)
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, plan)
			}
			vizs := plans[0].GroupSeries(series)
			for _, shards := range []int{1, 3} {
				ix := BuildVizIndex(vizs, shards)
				ec := newEvalCtx()
				for qi, plan := range plans {
					o := plan.opts
					ix.ix.Walk(func(env *shapeindex.Summary, members []int32) {
						envUB := envelopeUpperBound(ec, env, plan.norm, o)
						for _, id := range members {
							mUB := soundUpperBound(ec, ix.vizs[id], plan.norm, o)
							if envUB < mUB-boundEps {
								t.Fatalf("q=%q shards=%d: envelope bound %.12f < member %d sound bound %.12f",
									indexedQueries[qi], shards, envUB, id, mUB)
							}
						}
					})
				}
			}
		})
	}
}

// TestIndexedSearchMatchesScan is the indexed extension of the lossless
// contract: whatever the worker count, shard count, query shape or k, the
// indexed ranking — identities, order and exact scores — must be
// byte-identical to the unpruned sequential scan.
func TestIndexedSearchMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		series := mixedCorpus(rng, 120, 64+rng.Intn(32))
		for _, query := range indexedQueries {
			q := regexlang.MustParse(query)
			for _, k := range []int{1, 5} {
				base := DefaultOptions()
				base.Algorithm = AlgSegmentTree
				base.Parallelism = 1
				base.K = k
				base.Pruning = false
				want, err := searchSeries(series, q, base)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					opts := base
					opts.Pruning = true
					opts.Parallelism = workers
					plan, err := Compile(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					vizs := plan.GroupSeries(series)
					for _, shards := range []int{1, 3} {
						got, err := plan.RunIndexedStatsContext(context.Background(), BuildVizIndex(vizs, shards), nil)
						if err != nil {
							t.Fatal(err)
						}
						assertSameResults(t,
							fmt.Sprintf("seed=%d q=%q k=%d workers=%d shards=%d", seed, query, k, workers, shards),
							want, got)
					}
				}
			}
		}
	}
}

// TestIndexedBatchMatchesScan runs the whole query set as one MultiPlan over
// one shared traversal and demands every query's ranking equal its own
// unpruned sequential scan — the batch path must not let one query's floor
// prune another query's candidates.
func TestIndexedBatchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	series := mixedCorpus(rng, 150, 80)
	queries := indexedQueries

	opts := DefaultOptions()
	opts.Algorithm = AlgSegmentTree
	opts.Parallelism = 4
	opts.K = 5
	opts.Pruning = true

	mp, err := CompileBatch(mustParseAll(queries), opts)
	if err != nil {
		t.Fatal(err)
	}
	vizs := mp.plans[0].GroupSeries(series)
	for _, shards := range []int{1, 3} {
		got, err := mp.RunIndexedContext(context.Background(), BuildVizIndex(vizs, shards))
		if err != nil {
			t.Fatal(err)
		}
		for qi, query := range queries {
			base := opts
			base.Parallelism = 1
			base.Pruning = false
			want, err := searchSeries(series, regexlang.MustParse(query), base)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fmt.Sprintf("shards=%d q=%q", shards, query), want, got[qi])
		}
	}
}

// TestLargeCorpusIndexedSmoke runs a corpus above IndexMinCorpus end to end
// on a separated workload: the flat pruned scan (the path of a run without
// a prebuilt index) and the indexed traversal must both equal the unpruned
// scan, and the index must actually skip work — strictly fewer members
// visited than the corpus holds.
func TestLargeCorpusIndexedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-corpus smoke test skipped in -short mode")
	}
	series := gen.DriftPeaksSeries(6000, 32, 12, 7)
	q := regexlang.MustParse("u ; d ; u")

	base := DefaultOptions()
	base.Algorithm = AlgSegmentTree
	base.Parallelism = 4
	base.K = 10
	base.Pruning = false
	want, err := searchSeries(series, q, base)
	if err != nil {
		t.Fatal(err)
	}

	// Pruned Plan.Run flat-scans at any size: only a caller that keeps the
	// candidates builds an index.
	opts := base
	opts.Pruning = true
	plan, err := Compile(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Run(series)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "flat pruned scan", want, got)

	// Explicit index with stats: the envelope bounds must skip part of the
	// corpus outright on a separated workload.
	var st IndexStats
	got, err = plan.RunIndexedStatsContext(context.Background(), BuildVizIndex(plan.GroupSeries(series), 0), &st)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "explicit index", want, got)
	if st.Candidates != 6000 {
		t.Fatalf("Candidates = %d, want 6000", st.Candidates)
	}
	if st.Visited >= st.Candidates {
		t.Fatalf("index visited the whole corpus (%d of %d) — envelope bounds skipped nothing",
			st.Visited, st.Candidates)
	}
	t.Logf("visited %d of %d candidates (%d leaves, %d scored)",
		st.Visited, st.Candidates, st.Leaves, st.Scored)
}

// TestIndexStatsPinned fixes how much of a separated corpus the index skips
// for one query on one worker and one shard, where traversal order — and
// with it every counter — is deterministic. A change here means the
// traversal, the leaf scoring order or the floor updates changed, which
// moves the visited and scored fractions the benchmarks report.
func TestIndexStatsPinned(t *testing.T) {
	series := gen.DriftPeaksSeries(2000, 32, 8, 3)
	opts := DefaultOptions()
	opts.Algorithm = AlgSegmentTree
	opts.Parallelism = 1
	opts.K = 20
	opts.Pruning = true
	plan, err := Compile(regexlang.MustParse("u ; d ; u"), opts)
	if err != nil {
		t.Fatal(err)
	}
	var st IndexStats
	if _, err := plan.RunIndexedStatsContext(context.Background(), BuildVizIndex(plan.GroupSeries(series), 1), &st); err != nil {
		t.Fatal(err)
	}
	want := IndexStats{Candidates: 2000, Leaves: 9, Visited: 528, Scored: 232}
	if st != want {
		t.Fatalf("IndexStats = %+v, want %+v", st, want)
	}
}

// BenchmarkIndexCrossover measures the corpus size from which a prebuilt
// shape index beats the flat bound-first scan — the evidence behind
// IndexMinCorpus. Two corpora bracket the regimes: gen.Stocks has no bound
// separation (planted patterns of every shape, so most bounds clear the
// floor), gen.DriftPeaksSeries has it (a fixed planted strong set lifts the
// floor above a drifting bulk). Per size, Scan is the flat pruned pipeline
// (every run without a prebuilt index), Indexed traverses a prebuilt
// index and reports the fraction of candidates it bounded individually as
// visited_frac, and Build is the index build a candidate-cache miss pays
// on top of Indexed.
func BenchmarkIndexCrossover(b *testing.B) {
	const points = 48
	q := regexlang.MustParse("u ; d ; u")
	corpora := []struct {
		name   string
		series func(n int) ([]dataset.Series, error)
	}{
		{"Stocks", func(n int) ([]dataset.Series, error) {
			return gen.Stocks(n, points, 3).Extract(dataset.ExtractSpec{Z: "symbol", X: "day", Y: "price"})
		}},
		{"DriftPeaks", func(n int) ([]dataset.Series, error) {
			return gen.DriftPeaksSeries(n, points, 16, 9), nil
		}},
	}
	opts := DefaultOptions()
	opts.Algorithm = AlgSegmentTree
	opts.K = 10
	opts.Pruning = true
	plan, err := Compile(q, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range corpora {
		for _, n := range []int{256, 1024, 4096, 16384} {
			series, err := c.series(n)
			if err != nil {
				b.Fatal(err)
			}
			vizs := plan.GroupSeries(series)
			ix := BuildVizIndex(vizs, 0)
			b.Run(fmt.Sprintf("%s/N=%d/Scan", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := plan.RunGroupedContext(context.Background(), vizs); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/N=%d/Indexed", c.name, n), func(b *testing.B) {
				var st IndexStats
				b.ReportAllocs()
				for b.Loop() {
					if _, err := plan.RunIndexedStatsContext(context.Background(), ix, &st); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(st.Visited)/float64(st.Candidates), "visited_frac")
			})
			b.Run(fmt.Sprintf("%s/N=%d/Build", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					BuildVizIndex(vizs, 0)
				}
			})
		}
	}
}
