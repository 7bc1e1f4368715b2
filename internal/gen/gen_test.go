package gen

import (
	"math"
	"math/rand"
	"testing"

	"shapesearch/internal/dataset"
)

func TestBuildDimensions(t *testing.T) {
	cfg := Config{Name: "t", NumViz: 6, Length: 50, Seed: 1, Noise: 0.05}
	tbl := Build(cfg)
	if tbl.NumRows() != 6*50 {
		t.Fatalf("rows = %d, want %d", tbl.NumRows(), 6*50)
	}
	series, err := tbl.Extract(dataset.ExtractSpec{Z: "z", X: "x", Y: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("series = %d, want 6", len(series))
	}
	for _, s := range series {
		if s.Len() != 50 {
			t.Fatalf("series %s has %d points, want 50", s.Z, s.Len())
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	cfg := Config{Name: "t", NumViz: 3, Length: 40, Seed: 7, Noise: 0.1}
	a := Build(cfg)
	b := Build(cfg)
	ca, _ := a.Column("y")
	cb, _ := b.Column("y")
	for i := range ca.Floats {
		if ca.Floats[i] != cb.Floats[i] {
			t.Fatal("same seed must reproduce identical data")
		}
	}
	cfg.Seed = 8
	c := Build(cfg)
	cc, _ := c.Column("y")
	same := true
	for i := range ca.Floats {
		if ca.Floats[i] != cc.Floats[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestBuildSamplesPerX(t *testing.T) {
	cfg := Config{Name: "t", NumViz: 2, Length: 30, Seed: 1, SamplesPerX: 3}
	tbl := Build(cfg)
	if tbl.NumRows() != 2*30*3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	// Extraction without aggregation must fail; with AggAvg it succeeds.
	if _, err := tbl.Extract(dataset.ExtractSpec{Z: "z", X: "x", Y: "y"}); err == nil {
		t.Fatal("duplicate (z,x) should demand aggregation")
	}
	series, err := tbl.Extract(dataset.ExtractSpec{Z: "z", X: "x", Y: "y", Agg: dataset.AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	if series[0].Len() != 30 {
		t.Fatalf("aggregated length = %d, want 30", series[0].Len())
	}
}

// TestRenderTemplateShape verifies a planted rise/fall renders with the
// right gross structure.
func TestRenderTemplateShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trend := RenderTemplate(T("peak", 60, 1, -60, 1), 100, rng)
	if len(trend) != 100 {
		t.Fatalf("len = %d", len(trend))
	}
	maxAt := 0
	for i, y := range trend {
		if y > trend[maxAt] {
			maxAt = i
		}
	}
	if maxAt < 25 || maxAt > 75 {
		t.Fatalf("peak at %d, expected near the middle", maxAt)
	}
	if trend[0] > trend[maxAt] || trend[99] > trend[maxAt] {
		t.Fatal("endpoints should be below the peak")
	}
}

func TestRenderTemplateDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trend := RenderTemplate(Template{Name: "empty"}, 10, rng)
	if len(trend) != 10 {
		t.Fatalf("len = %d", len(trend))
	}
}

func TestTPanicsOnOddPairs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("T with odd pairs should panic")
		}
	}()
	T("bad", 1, 2, 3)
}

func TestEvalDatasetsDimensions(t *testing.T) {
	// Published Table 11 dimensions must match exactly.
	want := map[string][2]int{
		"Weather":    {144, 366},
		"Worms":      {258, 900},
		"50Words":    {905, 270},
		"RealEstate": {1777, 138},
		"Haptics":    {463, 1092},
	}
	for _, ds := range EvalDatasets() {
		dims, ok := want[ds.Name]
		if !ok {
			t.Errorf("unexpected dataset %q", ds.Name)
			continue
		}
		series, err := ds.Table.Extract(ds.Spec)
		if err != nil {
			t.Errorf("%s: %v", ds.Name, err)
			continue
		}
		if len(series) != dims[0] {
			t.Errorf("%s: %d trendlines, want %d", ds.Name, len(series), dims[0])
		}
		if series[0].Len() != dims[1] {
			t.Errorf("%s: %d points, want %d", ds.Name, series[0].Len(), dims[1])
		}
		if len(ds.FuzzyQueries) < 2 || ds.NonFuzzyQuery == "" {
			t.Errorf("%s: missing queries", ds.Name)
		}
	}
}

func TestGenes(t *testing.T) {
	tbl := Genes(30, 48, 1)
	series, err := tbl.Extract(dataset.ExtractSpec{Z: "gene", X: "hour", Y: "expression"})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 30 {
		t.Fatalf("genes = %d", len(series))
	}
	names := make(map[string]bool)
	for _, s := range series {
		names[s.Z] = true
	}
	for _, g := range []string{"gbx2", "klf5", "spry4", "pvt1"} {
		if !names[g] {
			t.Errorf("case-study gene %q missing", g)
		}
	}
}

func TestStocks(t *testing.T) {
	tbl := Stocks(20, 120, 1)
	series, err := tbl.Extract(dataset.ExtractSpec{Z: "symbol", X: "day", Y: "price"})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 20 {
		t.Fatalf("stocks = %d", len(series))
	}
	for _, s := range series {
		for _, p := range s.Y {
			if p <= 0 || math.IsNaN(p) {
				t.Fatalf("stock %s has non-positive price %v", s.Z, p)
			}
		}
	}
}

func TestLuminosityAndCities(t *testing.T) {
	lum := Luminosity(12, 200, 1)
	series, err := lum.Extract(dataset.ExtractSpec{Z: "star", X: "time", Y: "luminosity"})
	if err != nil || len(series) != 12 {
		t.Fatalf("stars = %d, err %v", len(series), err)
	}
	cities := Cities(9, 24, 1)
	cs, err := cities.Extract(dataset.ExtractSpec{Z: "city", X: "month", Y: "temperature"})
	if err != nil || len(cs) != 9 {
		t.Fatalf("cities = %d, err %v", len(cs), err)
	}
	southern := 0
	for _, s := range cs {
		if len(s.Z) >= 5 && s.Z[:5] == "south" {
			southern++
		}
	}
	if southern == 0 {
		t.Fatal("expected southern-hemisphere cities")
	}
}

func TestDriftPeaks(t *testing.T) {
	tbl := DriftPeaks(120, 64, 5)
	series, err := tbl.Extract(dataset.ExtractSpec{Z: "series", X: "t", Y: "v"})
	if err != nil || len(series) != 120 {
		t.Fatalf("series = %d, err %v", len(series), err)
	}
	zigzags := 0
	for _, s := range series {
		if s.Len() != 64 {
			t.Fatalf("%s has %d points, want 64", s.Z, s.Len())
		}
		if len(s.Z) >= 6 && s.Z[:6] == "zigzag" {
			zigzags++
		}
	}
	// ~12% planted zigzags: enough to fill a K=10 floor, rare enough that
	// pruning the drifting bulk is the dominant saving.
	if zigzags < 5 || zigzags > 40 {
		t.Fatalf("zigzags = %d, want a sparse planted minority", zigzags)
	}
}
