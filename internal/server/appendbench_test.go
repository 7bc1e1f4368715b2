package server

import (
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/gen"
	"shapesearch/internal/regexlang"
)

// appendBenchSeries sizes the benchmark corpus at shape-index scale: well
// past executor.IndexMinCorpus, so the cached entry carries a shape index
// (requireIndexed checks it) and the append path has every layer to
// maintain.
const appendBenchSeries = 100_000

// serveTickSearch issues one cached-path search against the bench corpus.
// Aggregation is avg so benchmark deltas can cycle (repeated x per series
// folds into the aggregate instead of erroring under AggNone).
func serveTickSearch(b *testing.B, s *Server) {
	b.Helper()
	req := searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: "u"},
		Dataset:      "ticks", Z: "z", X: "x", Y: "y", Agg: "avg", K: 5,
		Pruning: true,
	}
	rec := doJSON(b, s, "POST", "/api/search", req)
	if rec.Code != 200 {
		b.Fatalf("search: status = %d: %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkAppend measures the incremental maintenance cost of streaming
// appends into a 10^5-series indexed corpus: one timed op is AppendRows —
// the dataset-index delta merge, the per-group candidate patch and the
// shape-index leaf update — with a post-loop search asserting the patched
// entry still serves (cache hit, no rebuild). OnePoint appends single
// rows; KiloPoint appends 1000-row batches.
//
// ReRegister is the freshness-equivalent baseline: what the same update
// costs without the incremental path — rebuild the dataset index from the
// full table, re-extract, re-group and rebuild the shape index. Scoring is
// excluded on both sides; the comparison is maintenance vs maintenance.
func BenchmarkAppend(b *testing.B) {
	for _, tc := range []struct {
		name     string
		batchPts int
	}{{"OnePoint", 1}, {"KiloPoint", 1000}} {
		b.Run(tc.name, func(b *testing.B) {
			base, batches := gen.StreamTicks(appendBenchSeries, 8, 64, tc.batchPts, 5, true)
			s := New()
			s.Register("ticks", base)
			serveTickSearch(b, s) // warm: build and cache the candidate set + shape index
			requireIndexed(b, s, "ticks", true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.AppendRows("ticks", batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s.rebuildWG.Wait()
			// The appends must have kept the cached entry alive and patched:
			// a follow-up search has to hit, not rebuild.
			_, missesBefore := s.cache.stats()
			serveTickSearch(b, s)
			if _, missesAfter := s.cache.stats(); missesAfter != missesBefore {
				b.Fatalf("post-append search missed the cache (%d -> %d misses): entry was dropped, not patched", missesBefore, missesAfter)
			}
		})
	}
	b.Run("ReRegister", func(b *testing.B) {
		base, _ := gen.StreamTicks(appendBenchSeries, 8, 0, 0, 5, true)
		opts := executor.DefaultOptions()
		opts.K = 5
		opts.Pruning = true
		plan, err := executor.Compile(regexlang.MustParse("u"), opts)
		if err != nil {
			b.Fatal(err)
		}
		espec := plan.EffectiveSpec(dataset.ExtractSpec{Z: "z", X: "x", Y: "y", Agg: dataset.AggAvg})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix := dataset.BuildIndex(base)
			series, err := ix.Extract(espec)
			if err != nil {
				b.Fatal(err)
			}
			vizs := plan.GroupSeries(series)
			if executor.BuildVizIndex(vizs, 0) == nil {
				b.Fatal("expected a shape index at this corpus size")
			}
		}
	})
}
