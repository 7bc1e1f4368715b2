package dataset

import (
	"fmt"
	"math"
	"sort"
)

// legacyExtract is the row-at-a-time EXTRACT the columnar Index replaced,
// kept as the reference implementation the equivalence tests compare
// against: every row runs the checked per-row filter, the x-window test
// and the NaN checks, groups are hashed by rendered z value, and each
// group is stable-sorted by x before aggregation.
func legacyExtract(t *Table, spec ExtractSpec) ([]Series, error) {
	zc, xc, yc, err := resolveSpec(t, spec)
	if err != nil {
		return nil, err
	}
	fcols := make([]*Column, len(spec.Filters))
	for i, f := range spec.Filters {
		fc, err := t.Column(f.Col)
		if err != nil {
			return nil, err
		}
		fcols[i] = fc
	}

	groups := make(map[string][]point)
	var order []string

rows:
	for i := 0; i < t.rows; i++ {
		for j, f := range spec.Filters {
			ok, err := f.matches(fcols[j], i)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue rows
			}
		}
		x := xc.Floats[i]
		if len(spec.XRanges) > 0 && !InRanges(x, spec.XRanges) {
			continue
		}
		y := yc.Floats[i]
		if math.IsNaN(x) || math.IsNaN(y) {
			continue
		}
		z := zc.ValueString(i)
		if _, seen := groups[z]; !seen {
			order = append(order, z)
		}
		groups[z] = append(groups[z], point{x, y})
	}
	sort.Strings(order)

	series := make([]Series, 0, len(order))
	for _, z := range order {
		pts := groups[z]
		// Stable, so duplicate-x points keep row order: aggregation then
		// sums duplicates in the same order as the index-backed path,
		// keeping the two extraction paths float-bit-identical.
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
		s := Series{Z: z, X: make([]float64, 0, len(pts)), Y: make([]float64, 0, len(pts))}
		for i := 0; i < len(pts); {
			j := i
			for j < len(pts) && pts[j].x == pts[i].x {
				j++
			}
			if j-i > 1 && spec.Agg == AggNone {
				return nil, duplicateErr(spec, z, pts[i].x)
			}
			s.X = append(s.X, pts[i].x)
			s.Y = append(s.Y, aggregate(pts[i:j], spec.Agg))
			i = j
		}
		series = append(series, s)
	}
	return series, nil
}

// matches evaluates the filter on row i of column c.
func (f Filter) matches(c *Column, i int) (bool, error) {
	if c.Type == String {
		switch f.Op {
		case Eq:
			return c.Strings[i] == f.Str, nil
		case Ne:
			return c.Strings[i] != f.Str, nil
		default:
			return false, fmt.Errorf("dataset: operator %s not supported on string column %q", f.Op, f.Col)
		}
	}
	v := c.Floats[i]
	switch f.Op {
	case Eq:
		return v == f.Num, nil
	case Ne:
		return v != f.Num, nil
	case Lt:
		return v < f.Num, nil
	case Le:
		return v <= f.Num, nil
	case Gt:
		return v > f.Num, nil
	case Ge:
		return v >= f.Num, nil
	default:
		return false, fmt.Errorf("dataset: unknown operator %d", int(f.Op))
	}
}
