package dataset

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchTable builds a dataset shaped like real candidate-cache-miss
// traffic: many z groups of moderate length plus filterable attributes.
func benchTable(groups, perGroup int) *Table {
	rng := rand.New(rand.NewSource(3))
	rows := groups * perGroup
	zs := make([]string, 0, rows)
	xs := make([]float64, 0, rows)
	ys := make([]float64, 0, rows)
	region := make([]float64, 0, rows)
	sector := make([]string, 0, rows)
	sectors := []string{"tech", "energy", "health", "retail"}
	for g := 0; g < groups; g++ {
		z := fmt.Sprintf("series-%04d", g)
		sec := sectors[g%len(sectors)]
		for i := 0; i < perGroup; i++ {
			zs = append(zs, z)
			xs = append(xs, float64(i))
			ys = append(ys, rng.NormFloat64())
			region = append(region, float64(g%8))
			sector = append(sector, sec)
		}
	}
	tbl, err := New(
		Column{Name: "z", Type: String, Strings: zs},
		Column{Name: "x", Type: Float, Floats: xs},
		Column{Name: "y", Type: Float, Floats: ys},
		Column{Name: "region", Type: Float, Floats: region},
		Column{Name: "sector", Type: String, Strings: sector},
	)
	if err != nil {
		panic(err)
	}
	return tbl
}

// BenchmarkIndexBuild isolates the one-time cost Register pays per upload:
// eager string dictionaries only; permutations are lazy.
func BenchmarkIndexBuild(b *testing.B) {
	for _, size := range []struct{ groups, perGroup int }{
		{100, 100}, {1000, 100},
	} {
		tbl := benchTable(size.groups, size.perGroup)
		b.Run(fmt.Sprintf("rows=%d", tbl.NumRows()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildIndex(tbl)
			}
		})
	}
}

// BenchmarkIndexFirstExtract measures the cold path: index build plus the
// first extraction, which also builds the (z, x) permutation. IndexedCold
// is what a one-shot (*Table).Extract costs; Legacy is the row-at-a-time
// reference scan it replaced.
func BenchmarkIndexFirstExtract(b *testing.B) {
	tbl := benchTable(500, 100)
	spec := ExtractSpec{Z: "z", X: "x", Y: "y"}
	b.Run("Legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := legacyExtract(tbl, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("IndexedCold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildIndex(tbl).Extract(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtractDistinctFilters is the cache-miss traffic the index
// targets: repeated queries over one registered dataset whose filters vary
// per query, so the server's exact-spec candidate cache never hits. The
// legacy reference scan re-renders z, re-hashes and re-sorts every group
// per query; the indexed path pays a bitmap sweep and one pass over
// presorted runs.
func BenchmarkExtractDistinctFilters(b *testing.B) {
	tbl := benchTable(500, 100)
	ix := BuildIndex(tbl)
	// Warm the (z, x) permutation so the steady state is measured.
	if _, err := ix.Extract(ExtractSpec{Z: "z", X: "x", Y: "y"}); err != nil {
		b.Fatal(err)
	}
	specAt := func(i int) ExtractSpec {
		return ExtractSpec{
			Z: "z", X: "x", Y: "y",
			Filters: []Filter{
				{Col: "region", Op: Le, Num: float64(i % 8)},
				{Col: "sector", Op: Ne, Str: []string{"tech", "energy", "health", "retail"}[i%4]},
			},
		}
	}
	b.Run("Legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := legacyExtract(tbl, specAt(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Extract(specAt(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtractXRange measures the LOCATION push-down: binary-searched
// run restriction versus the legacy per-row range test.
func BenchmarkExtractXRange(b *testing.B) {
	tbl := benchTable(500, 100)
	ix := BuildIndex(tbl)
	spec := ExtractSpec{Z: "z", X: "x", Y: "y", XRanges: [][2]float64{{60, 80}}}
	if _, err := ix.Extract(spec); err != nil {
		b.Fatal(err)
	}
	b.Run("Legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := legacyExtract(tbl, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Extract(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtractSelective is the drilldown request shape: a category Eq
// filter keeping 1 in 25 series plus an x window of 40-99 points passed as
// Ge/Le filters on x, over a warmed layout. The indexed path reads the
// category's posting list, walks only the touched groups and binary-searches
// the folded window; the legacy reference scan tests every row.
func BenchmarkExtractSelective(b *testing.B) {
	const series, points, cats = 2500, 100, 25
	rng := rand.New(rand.NewSource(5))
	rows := series * points
	zs, cs := make([]string, 0, rows), make([]string, 0, rows)
	xs, ys := make([]float64, 0, rows), make([]float64, 0, rows)
	for s := 0; s < series; s++ {
		z, cat := fmt.Sprintf("series-%04d", s), fmt.Sprintf("cat%02d", s%cats)
		for i := 0; i < points; i++ {
			zs, cs = append(zs, z), append(cs, cat)
			xs, ys = append(xs, float64(i)), append(ys, rng.NormFloat64())
		}
	}
	tbl, err := New(
		Column{Name: "z", Type: String, Strings: zs},
		Column{Name: "cat", Type: String, Strings: cs},
		Column{Name: "x", Type: Float, Floats: xs},
		Column{Name: "y", Type: Float, Floats: ys},
	)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]ExtractSpec, 64)
	for i := range specs {
		w := 40 + rng.Intn(60)
		lo := rng.Intn(points - w + 1)
		specs[i] = ExtractSpec{Z: "z", X: "x", Y: "y", Filters: []Filter{
			{Col: "cat", Op: Eq, Str: fmt.Sprintf("cat%02d", rng.Intn(cats))},
			{Col: "x", Op: Ge, Num: float64(lo)},
			{Col: "x", Op: Le, Num: float64(lo + w - 1)},
		}}
	}
	ix := BuildIndex(tbl)
	// Warm the (z, x) layout and the category's posting lists.
	if _, err := ix.Extract(specs[0]); err != nil {
		b.Fatal(err)
	}
	b.Run("Legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := legacyExtract(tbl, specs[i%len(specs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Extract(specs[i%len(specs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
