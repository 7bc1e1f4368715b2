package executor

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shape"
)

func planSeries() []dataset.Series {
	rng := rand.New(rand.NewSource(7))
	var series []dataset.Series
	for i := 0; i < 30; i++ {
		s := randomSeries(rng, 48)
		s.Z = s.Z + string(rune('a'+i%26)) + string(rune('0'+i/26))
		series = append(series, s)
	}
	series = append(series,
		ramp("peak", 0, [2]float64{24, 1}, [2]float64{23, -1}),
		ramp("valley", 1, [2]float64{24, -1}, [2]float64{23, 1}),
	)
	return series
}

func TestCompileRejectsInvalidQueries(t *testing.T) {
	if _, err := Compile(regexlang.MustParse("[p=foo_pattern]"), DefaultOptions()); err == nil {
		t.Fatal("unknown UDP must fail at Compile")
	}
	bad := DefaultOptions()
	bad.Algorithm = Algorithm(99)
	if _, err := Compile(regexlang.MustParse("u ; d"), bad); err == nil {
		t.Fatal("unknown algorithm must fail at Compile")
	}
}

// TestCompileNormalizedMatchesCompile: compiling from an already
// normalized query yields the plan Compile builds — same fingerprint, same
// ranking — and still validates the query.
func TestCompileNormalizedMatchesCompile(t *testing.T) {
	series := planSeries()
	opts := DefaultOptions()
	opts.K = 5
	for _, src := range []string{"u ; d", "u? ; d ; u?", "[p=up] ; [p=down]"} {
		q := regexlang.MustParse(src)
		norm, err := shape.Normalize(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compile(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompileNormalized(q, norm, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: fingerprint %q, want %q", src, got.Fingerprint(), want.Fingerprint())
		}
		wr, err := want.Run(series)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := got.Run(series)
		if err != nil {
			t.Fatal(err)
		}
		if len(gr) != len(wr) {
			t.Fatalf("%s: %d results, want %d", src, len(gr), len(wr))
		}
		for i := range wr {
			if gr[i].Z != wr[i].Z || gr[i].Score != wr[i].Score {
				t.Fatalf("%s: %d: %s %v != %s %v", src, i, gr[i].Z, gr[i].Score, wr[i].Z, wr[i].Score)
			}
		}
	}
	_, werr := Compile(shape.Query{}, opts)
	_, gerr := CompileNormalized(shape.Query{}, shape.Normalized{}, opts)
	if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
		t.Fatalf("empty query: Compile err %v, CompileNormalized err %v", werr, gerr)
	}
}

// TestPlanMatchesSearchSeries: a plan's SearchContext over a table (the
// root package's Search) must rank byte-identically to its Run over the
// same series extracted up front (the root package's SearchSeries), across
// algorithms, pruning and parallelism.
func TestPlanMatchesSearchSeries(t *testing.T) {
	var zs []string
	var xs, ys []float64
	for _, s := range planSeries() {
		for i := range s.X {
			zs = append(zs, s.Z)
			xs = append(xs, s.X[i])
			ys = append(ys, s.Y[i])
		}
	}
	tbl, err := dataset.New(
		dataset.Column{Name: "z", Type: dataset.String, Strings: zs},
		dataset.Column{Name: "x", Type: dataset.Float, Floats: xs},
		dataset.Column{Name: "y", Type: dataset.Float, Floats: ys},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec := dataset.ExtractSpec{Z: "z", X: "x", Y: "y"}
	series, err := tbl.Extract(spec)
	if err != nil {
		t.Fatal(err)
	}
	q := regexlang.MustParse("u ; d")
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"sequential", func(o *Options) { o.Parallelism = 1 }},
		{"parallel", func(o *Options) { o.Parallelism = 4 }},
		{"pruned-sequential", func(o *Options) { o.Parallelism = 1; o.Pruning = true }},
		{"pruned-parallel", func(o *Options) { o.Parallelism = 4; o.Pruning = true }},
		{"dp", func(o *Options) { o.Algorithm = AlgDP }},
		{"greedy", func(o *Options) { o.Algorithm = AlgGreedy }},
		{"euclidean", func(o *Options) { o.Algorithm = AlgEuclidean }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.K = 5
			tc.mod(&opts)
			plan, err := Compile(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plan.Run(series)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.SearchContext(context.Background(), tbl, spec)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, tc.name, want, got)
		})
	}
}

// TestRunGroupedMatchesRun: scoring pre-grouped candidates must equal the
// ungrouped path — the contract the server's candidate cache relies on.
func TestRunGroupedMatchesRun(t *testing.T) {
	series := planSeries()
	for _, query := range []string{"u ; d", "[p{up},x.s=10,x.e=30]"} {
		q := regexlang.MustParse(query)
		plan, err := Compile(q, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want, err := plan.Run(series)
		if err != nil {
			t.Fatal(err)
		}
		vizs := plan.GroupSeries(series)
		got, err := plan.RunGroupedContext(context.Background(), vizs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: len %d != %d", query, len(got), len(want))
		}
		for i := range want {
			if got[i].Z != want[i].Z || got[i].Score != want[i].Score {
				t.Fatalf("%s: %d: %+v != %+v", query, i, got[i].Z, want[i].Z)
			}
		}
	}
}

// TestPlanConcurrentReuse: one compiled plan must serve concurrent Run and
// RunGroupedContext calls (the serving pattern) race-free with stable
// results.
func TestPlanConcurrentReuse(t *testing.T) {
	series := planSeries()
	opts := DefaultOptions()
	opts.Pruning = true
	plan, err := Compile(regexlang.MustParse("u ; d"), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Run(series)
	if err != nil {
		t.Fatal(err)
	}
	vizs := plan.GroupSeries(series)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				var got []Result
				var err error
				if g%2 == 0 {
					got, err = plan.Run(series)
				} else {
					got, err = plan.RunGroupedContext(context.Background(), vizs)
				}
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if got[i].Z != want[i].Z || got[i].Score != want[i].Score {
						errs <- errMismatch
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent plan runs disagree" }

func TestCandidateKey(t *testing.T) {
	spec := dataset.ExtractSpec{Z: "z", X: "x", Y: "y", Agg: dataset.AggAvg}
	fuzzy, err := Compile(regexlang.MustParse("u ; d"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fuzzy2, err := Compile(regexlang.MustParse("d ; u ; d"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Different queries, same visual parameters: keys collide on purpose —
	// that is what lets the cache serve all of them from one candidate set.
	if fuzzy.CandidateKey(spec) != fuzzy2.CandidateKey(spec) {
		t.Fatal("fuzzy queries over the same spec must share a candidate key")
	}
	other := spec
	other.Y = "y2"
	if fuzzy.CandidateKey(spec) == fuzzy.CandidateKey(other) {
		t.Fatal("different specs must not share a candidate key")
	}
	filtered := spec
	filtered.Filters = []dataset.Filter{{Col: "y", Op: dataset.Lt, Num: 3}}
	if fuzzy.CandidateKey(spec) == fuzzy.CandidateKey(filtered) {
		t.Fatal("filters must be part of the candidate key")
	}
	// A y-constrained query disables z-normalization, changing the grouped
	// candidates; its key must differ.
	ycons, err := Compile(regexlang.MustParse("[p{up},y.s=1,y.e=5]"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ycons.CandidateKey(spec) == fuzzy.CandidateKey(spec) {
		t.Fatal("y-constrained queries must not share candidates with z-normalized ones")
	}
	// A fully pinned query pushes windows into EXTRACT and skip-masks GROUP.
	pinned, err := Compile(regexlang.MustParse("[p{up},x.s=10,x.e=30]"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pinned.CandidateKey(spec) == fuzzy.CandidateKey(spec) {
		t.Fatal("pinned queries must not share candidates with unpinned ones")
	}
}

// TestSharedThresholdPruningParallel: the parallel pruned pipeline must
// return the exact top-k of the unpruned search — identity, order and
// scores — under any worker count (the Section 6.3 guarantee, now lossless
// under a shared live threshold plus deferred verification).
func TestSharedThresholdPruningParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var series []dataset.Series
	for i := 0; i < 60; i++ {
		s := randomSeries(rng, 64)
		s.Z = s.Z + string(rune('a'+i%26)) + string(rune('0'+i/26))
		series = append(series, s)
	}
	for i := 0; i < 5; i++ {
		series = append(series, ramp("peak"+string(rune('0'+i)), 0, [2]float64{32, 1}, [2]float64{31, -1}))
	}
	q := regexlang.MustParse("u ; d")
	base := DefaultOptions()
	base.Algorithm = AlgSegmentTree
	base.K = 5
	base.Parallelism = 1
	want, err := searchSeries(series, q, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		pruned := base
		pruned.Pruning = true
		pruned.Parallelism = workers
		got, err := searchSeries(series, q, pruned)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: len %d != %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Z != want[i].Z || got[i].Score != want[i].Score {
				t.Fatalf("workers=%d: rank %d: pruned %s %.12f != unpruned %s %.12f",
					workers, i, got[i].Z, got[i].Score, want[i].Z, want[i].Score)
			}
		}
	}
}
