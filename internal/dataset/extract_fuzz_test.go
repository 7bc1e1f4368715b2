package dataset

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzReader hands out fuzz input bytes as small choices; an exhausted
// input reads as zeros, so every byte string decodes to a valid case.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) intn(n int) int {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return int(c) % n
}

// fuzzFloats are the constants the fuzz tables and filters draw from:
// duplicates, signed zeros, a fraction, NaN and both infinities.
var fuzzFloats = []float64{0, math.Copysign(0, -1), 1, 2, 2.5, 3, -1, 7, math.NaN(), math.Inf(1), math.Inf(-1)}

// fuzzStrings are the string values; "q" never appears in a table, so
// filters on it exercise absent dictionary values.
var fuzzStrings = []string{"a", "b", "c", "d", "q"}

func (r *fuzzReader) float() float64 { return fuzzFloats[r.intn(len(fuzzFloats))] }

// fuzzCols is the fuzz table schema: string and float grouping keys, the
// x and y axes, and one filter column of each type.
var fuzzCols = []struct {
	name string
	typ  ColumnType
}{{"zs", String}, {"zf", Float}, {"x", Float}, {"y", Float}, {"fstr", String}, {"fnum", Float}}

// table decodes a table of up to maxRows rows in the fuzz schema.
func (r *fuzzReader) table(maxRows int) *Table {
	rows := r.intn(maxRows + 1)
	cols := make([]Column, len(fuzzCols))
	for ci, fc := range fuzzCols {
		cols[ci] = Column{Name: fc.name, Type: fc.typ}
		for i := 0; i < rows; i++ {
			if fc.typ == String {
				cols[ci].Strings = append(cols[ci].Strings, fuzzStrings[r.intn(len(fuzzStrings)-1)])
			} else {
				cols[ci].Floats = append(cols[ci].Floats, r.float())
			}
		}
	}
	t, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// spec decodes an extraction spec: string or float z, any aggregation, up
// to four filters (all six operators on float columns, Eq/Ne on string
// columns, now and then a missing column), and up to two x windows.
func (r *fuzzReader) spec() ExtractSpec {
	spec := ExtractSpec{Z: "zs", X: "x", Y: "y", Agg: Agg(r.intn(6))}
	if r.intn(2) == 1 {
		spec.Z = "zf"
	}
	for n := r.intn(5); n > 0; n-- {
		if r.intn(16) == 0 {
			spec.Filters = append(spec.Filters, Filter{Col: "ghost", Op: Eq})
			continue
		}
		fc := fuzzCols[r.intn(len(fuzzCols))]
		f := Filter{Col: fc.name}
		if fc.typ == String {
			f.Op = FilterOp(r.intn(2)) // Eq or Ne
			f.Str = fuzzStrings[r.intn(len(fuzzStrings))]
		} else {
			f.Op = FilterOp(r.intn(6))
			f.Num = r.float()
		}
		spec.Filters = append(spec.Filters, f)
	}
	for n := r.intn(3); n > 0; n-- {
		spec.XRanges = append(spec.XRanges, [2]float64{r.float(), r.float()})
	}
	return spec
}

// FuzzIndexedExtractMatchesLegacy is the differential fuzz target for
// EXTRACT: over a small decoded table, spec and append schedule, the
// index's extraction must be bit-identical to legacyExtract over the
// concatenated table — before and after every append, error text included.
func FuzzIndexedExtractMatchesLegacy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add([]byte("\x20\x08\x09\x0a\x02\x00\x01\x05\x03\x04\x02\x02\x01\x08\x09\x0a\x01\x02\x09\x0a\x02"))
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(192))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		base := r.table(24)
		parts := []*Table{copyTable(base)}
		ix := BuildIndex(base)
		spec := r.spec()
		appends := r.intn(3)
		for step := 0; ; step++ {
			truth, err := Concat(parts...)
			if err != nil {
				t.Fatal(err)
			}
			want, werr := legacyExtract(truth, spec)
			got, gerr := ix.Extract(spec)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("step %d spec %+v: legacy err %v, indexed err %v", step, spec, werr, gerr)
			}
			if werr != nil {
				if werr.Error() != gerr.Error() {
					t.Fatalf("step %d spec %+v: error mismatch:\nlegacy:  %v\nindexed: %v", step, spec, werr, gerr)
				}
			} else {
				assertSeriesIdentical(t, want, got)
			}
			if step == appends {
				return
			}
			delta := r.table(8)
			if err := ix.Append(delta); err != nil {
				t.Fatalf("step %d: append: %v", step, err)
			}
			parts = append(parts, delta)
		}
	})
}
