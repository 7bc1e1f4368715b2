package executor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"shapesearch/internal/dataset"
	"shapesearch/internal/gen"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/segstat"
	"shapesearch/internal/shape"
)

func TestGroupSkipRanges(t *testing.T) {
	s := mkSeries("a", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	v := group(s, groupConfig{zNormalize: true, keepRanges: [][2]float64{{3, 6}}})
	if v.Skipped == nil {
		t.Fatal("expected skip mask")
	}
	for i, skipped := range v.Skipped {
		x := s.X[i]
		want := x < 3 || x > 6
		if skipped != want {
			t.Fatalf("point %d (x=%v) skipped=%v, want %v", i, x, skipped, want)
		}
	}
	// A fit over skipped points must be rejected by the evaluator.
	q := regexlang.MustParse("[p=up]")
	norm, _ := shape.Normalize(q)
	o := seqOpts().normalized()
	ce := compileChain(v, norm.Alternatives[0], o)
	if sc := ce.unitScore(0, 0, 9); sc != -1 {
		t.Fatalf("fit over skipped points = %v, want -1", sc)
	}
	if sc := ce.unitScore(0, 3, 6); sc <= 0 {
		t.Fatalf("fit inside kept range = %v, want positive", sc)
	}
}

// TestGroupPrefixMatchesBuildPrefix: GROUP's one-pass prefix must equal,
// bit for bit, segstat.BuildPrefix over explicit per-point bins — one
// b.Add per kept point, an empty bin per skipped one — the form every fit
// was validated against. Edge cases: push-down skip windows, zero
// variance, the two-point minimum, −0 and magnitudes that overflow the
// running sums.
func TestGroupPrefixMatchesBuildPrefix(t *testing.T) {
	type tc struct {
		name string
		s    dataset.Series
		cfg  groupConfig
	}
	rng := rand.New(rand.NewSource(5))
	var cases []tc
	for i := 0; i < 20; i++ {
		s := randomSeries(rng, 2+rng.Intn(90))
		lo := s.X[0] + rng.Float64()*s.X[len(s.X)-1]
		cases = append(cases,
			tc{"random", s, groupConfig{zNormalize: true}},
			tc{"random-skip", s, groupConfig{zNormalize: i%2 == 0, keepRanges: [][2]float64{{lo, lo + 5}, {lo + 20, lo + 30}}}})
	}
	cases = append(cases,
		tc{"constant", mkSeries("c", 7, 7, 7, 7, 7, 7), groupConfig{zNormalize: true}},
		tc{"constant-raw", mkSeries("c", 7, 7, 7, 7, 7, 7), groupConfig{}},
		tc{"n=2", mkSeries("two", 1, -3), groupConfig{zNormalize: true}},
		tc{"n=2-raw", mkSeries("two", 1, -3), groupConfig{}},
		tc{"negzero", mkSeries("z", math.Copysign(0, -1), 0, math.Copysign(0, -1), 2), groupConfig{}},
		tc{"huge", mkSeries("h", 1e308, -1e308, 1e308, 1e308, 5e-324, -1e300), groupConfig{}},
		tc{"huge-norm", mkSeries("h", 1e300, -1e300, 1e300, 3), groupConfig{zNormalize: true}},
	)
	for _, c := range cases {
		v := group(c.s, c.cfg)
		n := c.s.Len()
		if cap(v.NX) != n {
			t.Fatalf("%s: cap(NX) = %d, want %d (NX must not grow into NY)", c.name, cap(v.NX), n)
		}
		bins := make([]segstat.Stats, n)
		for i := range bins {
			if v.Skipped == nil || !v.Skipped[i] {
				bins[i].Add(v.NX[i], v.NY[i])
			}
		}
		want := segstat.BuildPrefix(bins)
		if len(v.Prefix) != len(want) {
			t.Fatalf("%s: prefix length %d, want %d", c.name, len(v.Prefix), len(want))
		}
		for i := range want {
			if g, w := v.Prefix[i], want[i]; statBits(g) != statBits(w) {
				t.Fatalf("%s: Prefix[%d] = %+v, want %+v", c.name, i, g, w)
			}
		}
	}
}

func statBits(s segstat.Stats) [5]uint64 {
	return [5]uint64{math.Float64bits(s.SumX), math.Float64bits(s.SumY),
		math.Float64bits(s.SumXY), math.Float64bits(s.SumXX), math.Float64bits(s.N)}
}

// TestGroupNormalizedSlopeInvariance: after normalization, the fitted slope
// over the full chart is invariant to affine transforms of y and to the
// absolute x scale — the property that makes θ=45° mean the same thing on
// every chart.
func TestGroupNormalizedSlopeInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(50)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = float64(i) + r.NormFloat64()
		}
		base := mkSeries("a", ys...)
		scaled := dataset.Series{Z: "b", X: make([]float64, n), Y: make([]float64, n)}
		a := 0.5 + r.Float64()*20
		bOff := r.NormFloat64() * 100
		for i := range ys {
			scaled.X[i] = base.X[i]*37 + 5 // different x units
			scaled.Y[i] = a*ys[i] + bOff   // affine y
		}
		v1 := group(base, groupConfig{zNormalize: true})
		v2 := group(scaled, groupConfig{zNormalize: true})
		s1, ok1 := v1.rangeSlope(0, n-1)
		s2, ok2 := v2.rangeSlope(0, n-1)
		if !ok1 || !ok2 {
			return false
		}
		return math.Abs(s1-s2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUnitBoundsComposition(t *testing.T) {
	sLo, sHi := -1.0, 2.0
	up := shape.PatternSeg(shape.PatUp)
	down := shape.PatternSeg(shape.PatDown)
	lo, hi := unitBounds(up, sLo, sHi, false)
	if lo >= hi {
		t.Fatalf("up bounds [%v, %v]", lo, hi)
	}
	// AND bounds: min composition.
	alo, ahi := unitBounds(shape.And(up, down), sLo, sHi, false)
	ulo, uhi := unitBounds(up, sLo, sHi, false)
	dlo, dhi := unitBounds(down, sLo, sHi, false)
	if ahi != math.Min(uhi, dhi) || alo != math.Min(ulo, dlo) {
		t.Fatalf("AND bounds [%v, %v]", alo, ahi)
	}
	// OR bounds: max composition.
	olo, ohi := unitBounds(shape.Or(up, down), sLo, sHi, false)
	if ohi != math.Max(uhi, dhi) || olo != math.Max(ulo, dlo) {
		t.Fatalf("OR bounds [%v, %v]", olo, ohi)
	}
	// NOT flips and negates.
	nlo, nhi := unitBounds(shape.Not(up), sLo, sHi, false)
	if nlo != -uhi || nhi != -ulo {
		t.Fatalf("NOT bounds [%v, %v]", nlo, nhi)
	}
	// When evaluation-failure paths exist (skip masks, degenerate fits),
	// the lower bound collapses to −1 so NOT stays sound.
	flo, fhi := unitBounds(up, sLo, sHi, true)
	if flo != -1 || fhi != uhi {
		t.Fatalf("mayFail bounds [%v, %v]", flo, fhi)
	}
	// Quantifiers and sketches are conservatively unbounded.
	quant := shape.Seg(shape.Segment{Pat: shape.Pattern{Kind: shape.PatUp},
		Mod: shape.Modifier{Kind: shape.ModQuantifier, Min: 2, HasMin: true}})
	qlo, qhi := unitBounds(quant, sLo, sHi, false)
	if qlo != -1 || qhi != 1 {
		t.Fatalf("quantifier bounds [%v, %v]", qlo, qhi)
	}
}

// TestSoundBoundDominatesExact: the pruning upper bound must dominate the
// solver's exact score outright — no safety margin, no tolerated violation
// rate (only float-noise epsilon). This is the property that makes pruning
// lossless; the old mid-tree-level bound failed it on two thirds of real
// candidates and hid behind pruneSafetyMargin = 0.05.
func TestSoundBoundDominatesExact(t *testing.T) {
	queries := []string{
		"u ; d",
		"u ; d ; u ; d",
		"f ; u ; d",
		"u ; (d | f)",
		"u ; [p=down, x.s=20, x.e=40] ; u",
		"[p=up, m=>>] ; d",
	}
	rng := rand.New(rand.NewSource(17))
	ec := newEvalCtx()
	for _, query := range queries {
		plan, err := Compile(regexlang.MustParse(query), seqOpts())
		if err != nil {
			t.Fatal(err)
		}
		norm, o := plan.norm, plan.opts
		for i := 0; i < 60; i++ {
			var v *Viz
			if i%3 == 0 {
				// Clean ramps: the regime where the bound is tight.
				up := 16 + rng.Intn(32)
				v = group(ramp("r", 0,
					[2]float64{float64(up), 1 + rng.Float64()},
					[2]float64{float64(63 - up), -1 - rng.Float64()}), groupConfig{zNormalize: true})
			} else {
				v = group(randomSeries(rng, 64), groupConfig{zNormalize: true})
			}
			exact, _ := evalViz(ec, v, norm, o, treeRun)
			ub := soundUpperBound(ec, v, norm, o)
			if ub < exact-1e-9 {
				t.Fatalf("%q trial %d: sound bound %.12f below exact score %.12f", query, i, ub, exact)
			}
		}
	}
}

func TestRenderReference(t *testing.T) {
	q := regexlang.MustParse("u ; d")
	norm, _ := shape.Normalize(q)
	ref := renderReference(norm.Alternatives[0], 40)
	if len(ref) != 40 {
		t.Fatalf("len = %d", len(ref))
	}
	maxAt := 0
	for i, y := range ref {
		if y > ref[maxAt] {
			maxAt = i
		}
	}
	if maxAt < 15 || maxAt > 25 {
		t.Fatalf("peak at %d, want ~20", maxAt)
	}
	if out := renderReference(norm.Alternatives[0], 1); len(out) != 1 {
		t.Fatal("degenerate length")
	}
}

func TestNominalAngle(t *testing.T) {
	if a := nominalAngle(shape.PatternSeg(shape.PatUp)); a != 50 {
		t.Fatalf("up angle = %v", a)
	}
	if a := nominalAngle(shape.Not(shape.PatternSeg(shape.PatUp))); a != -50 {
		t.Fatalf("not-up angle = %v", a)
	}
	if a := nominalAngle(shape.SlopeSeg(33)); a != 33 {
		t.Fatalf("slope angle = %v", a)
	}
	if a := nominalAngle(shape.Or(shape.PatternSeg(shape.PatDown), shape.PatternSeg(shape.PatUp))); a != -50 {
		t.Fatalf("or angle = %v (first branch)", a)
	}
}

func TestMinSpanRelaxes(t *testing.T) {
	s := mkSeries("a", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	v := group(s, groupConfig{zNormalize: true})
	o := seqOpts().normalized()
	o.MinSegmentFrac = 0.5 // absurd floor: 5-6 points per unit
	q := regexlang.MustParse("u ; d ; u ; d")
	norm, _ := shape.Normalize(q)
	ce := compileChain(v, norm.Alternatives[0], o)
	// Four units over 11 gaps cannot all span 5: the floor must relax so a
	// segmentation still exists.
	if got := minSpan(ce, 4, 0, 11); got > 2 {
		t.Fatalf("minSpan = %d, want relaxed <= 2", got)
	}
	res := solveChain(ce, dpRun)
	if res.score == -1 {
		t.Fatal("relaxed floor should keep the query feasible")
	}
}

func TestFilterSeriesWithData(t *testing.T) {
	near := mkSeries("near", 1, 2, 3)
	far := mkSeries("far", 1, 2, 3)
	for i := range far.X {
		far.X[i] += 100
	}
	out := filterSeriesWithData([]dataset.Series{near, far}, [][2]float64{{0, 5}})
	if len(out) != 1 || out[0].Z != "near" {
		t.Fatalf("out = %+v", out)
	}
	// Two windows: must have data in both.
	out = filterSeriesWithData([]dataset.Series{near, far}, [][2]float64{{0, 5}, {100, 105}})
	if len(out) != 0 {
		t.Fatalf("out = %+v", out)
	}
}

func TestSearchPrunedMatchesPlainOnSearch(t *testing.T) {
	series := peakValleySeries()
	q := regexlang.MustParse("u ; d")
	plain := seqOpts()
	plain.Algorithm = AlgSegmentTree
	pruned := plain
	pruned.Pruning = true
	a, err := searchSeries(series, q, plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := searchSeries(series, q, pruned)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("pruned returned %d results, plain %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Z != b[i].Z || a[i].Score != b[i].Score {
			t.Fatalf("rank %d: pruned %s %.12f != plain %s %.12f", i, b[i].Z, b[i].Score, a[i].Z, a[i].Score)
		}
	}
}

// BenchmarkGroupSeries measures the GROUP operator alone on a
// drilldown-sized candidate set: 400 series of 70 points.
func BenchmarkGroupSeries(b *testing.B) {
	series := gen.DriftPeaksSeries(400, 70, 16, 1)
	plan, err := Compile(regexlang.MustParse("u ; d"), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		plan.GroupSeries(series)
	}
}
