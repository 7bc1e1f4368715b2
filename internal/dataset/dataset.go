// Package dataset implements ShapeSearch's OLAP data substrate (Section 5.1
// of the paper): an in-memory columnar table loaded from CSV or JSON, filter
// predicates, and the EXTRACT step that selects, aggregates and sorts
// records into candidate trendline series according to the visual
// parameters z, x and y.
//
// EXTRACT has one physical implementation, the columnar *Index built by
// BuildIndex: dictionary-encoded grouping keys, memoized (z, x) sort
// permutations walked as contiguous z-runs, and vectorized filter kernels
// over a selection bitmap. Serving layers index tables once at
// registration and extract through the index; a bare *Table extracts by
// building a throwaway index.
package dataset

import (
	"fmt"
	"sort"
	"strconv"
)

// ColumnType is the type of a column's values.
type ColumnType int

const (
	// Float columns hold numeric values.
	Float ColumnType = iota
	// String columns hold categorical values.
	String
)

// Column is one named, typed column. Exactly one of Floats or Strings is
// populated, matching Type.
type Column struct {
	Name    string
	Type    ColumnType
	Floats  []float64
	Strings []string
}

// Len reports the number of values in the column.
func (c *Column) Len() int {
	if c.Type == Float {
		return len(c.Floats)
	}
	return len(c.Strings)
}

// ValueString renders row i as a string (used for z grouping keys).
func (c *Column) ValueString(i int) string {
	if c.Type == Float {
		return strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
	}
	return c.Strings[i]
}

// Table is an immutable in-memory columnar table.
type Table struct {
	cols   []Column
	byName map[string]int
	rows   int
}

// New builds a table from columns. All columns must share one length.
func New(cols ...Column) (*Table, error) {
	t := &Table{byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("dataset: column %d has no name", i)
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate column %q", c.Name)
		}
		if i > 0 && c.Len() != t.rows {
			return nil, fmt.Errorf("dataset: column %q has %d rows, want %d", c.Name, c.Len(), t.rows)
		}
		if i == 0 {
			t.rows = c.Len()
		}
		t.byName[c.Name] = i
		t.cols = append(t.cols, c)
	}
	return t, nil
}

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return t.rows }

// NumCols reports the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// ColumnNames lists column names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i := range t.cols {
		names[i] = t.cols[i].Name
	}
	return names
}

// Column returns a column by name.
func (t *Table) Column(name string) (*Column, error) {
	i, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("dataset: no column %q", name)
	}
	return &t.cols[i], nil
}

// DistinctValues returns the sorted distinct rendered values of the named
// column — the grouping keys it would contribute as a z attribute. The
// incremental append path uses it to learn which z groups a delta batch
// touches.
func (t *Table) DistinctValues(name string) ([]string, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, 16)
	out := make([]string, 0, 16)
	for i := 0; i < c.Len(); i++ {
		v := c.ValueString(i)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	sort.Strings(out)
	return out, nil
}

// FilterOp is a comparison operator in a filter predicate.
type FilterOp int

const (
	// Eq tests equality.
	Eq FilterOp = iota
	// Ne tests inequality.
	Ne
	// Lt tests strictly-less-than (numeric columns only).
	Lt
	// Le tests less-or-equal (numeric columns only).
	Le
	// Gt tests strictly-greater-than (numeric columns only).
	Gt
	// Ge tests greater-or-equal (numeric columns only).
	Ge
)

// String renders the operator.
func (op FilterOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return "?"
	}
}

// Filter is one predicate on a column. Filters on a query are conjunctive:
// a row survives when every filter accepts it. For Float columns Num is
// compared; for String columns only Eq and Ne apply, against Str.
type Filter struct {
	Col string
	Op  FilterOp
	Num float64
	Str string
}

// Agg is the aggregation applied when multiple y values share one (z, x)
// coordinate (for example the Real Estate dataset of the paper's
// evaluation).
type Agg int

const (
	// AggNone keeps duplicate points (they are averaged implicitly by the
	// fit, but GROUP-level binning expects one point per x, so extraction
	// with duplicates and AggNone reports an error).
	AggNone Agg = iota
	// AggAvg averages duplicate y values (the paper's default).
	AggAvg
	// AggSum sums duplicates.
	AggSum
	// AggMin keeps the minimum.
	AggMin
	// AggMax keeps the maximum.
	AggMax
	// AggCount counts duplicates, ignoring their values.
	AggCount
)

// String names the aggregation.
func (a Agg) String() string {
	switch a {
	case AggNone:
		return "none"
	case AggAvg:
		return "avg"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	default:
		return "?"
	}
}

// Series is one candidate visualization: the trendline of a single z value,
// sorted by x.
type Series struct {
	Z string
	X []float64
	Y []float64
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.X) }

// ExtractSpec is the input to Extract: the visual parameters R of the paper
// (z, x, y attributes), filters f, and aggregation a.
type ExtractSpec struct {
	Z, X, Y string
	Filters []Filter
	Agg     Agg
	// XRanges optionally restricts extraction to x values inside any of the
	// given [start, end] windows — the LOCATION push-down of Section 5.4.
	// Empty means the full domain.
	XRanges [][2]float64
}

// Source is anything the EXTRACT operator can run against: an *Index, or a
// bare *Table, which indexes itself per call. Both produce identical Series
// for identical specs.
type Source interface {
	// Table returns the underlying columnar table (for metadata access).
	Table() *Table
	// Extract selects and aggregates records into one Series per distinct
	// z value, sorted on z then x.
	Extract(spec ExtractSpec) ([]Series, error)
}

// Table returns the table itself, making *Table a Source.
func (t *Table) Table() *Table { return t }

// Extract runs EXTRACT over the table through a throwaway index: the
// one-shot path, paying the index build and the (z, x) layout sort on
// every call. Callers extracting from one table repeatedly should
// BuildIndex once and extract through the index.
func (t *Table) Extract(spec ExtractSpec) ([]Series, error) { return BuildIndex(t).Extract(spec) }

// resolveSpec resolves and validates the z/x/y attributes of a spec against
// a table.
func resolveSpec(t *Table, spec ExtractSpec) (zc, xc, yc *Column, err error) {
	zc, err = t.Column(spec.Z)
	if err != nil {
		return nil, nil, nil, err
	}
	xc, err = t.Column(spec.X)
	if err != nil {
		return nil, nil, nil, err
	}
	if xc.Type != Float {
		return nil, nil, nil, fmt.Errorf("dataset: x attribute %q must be numeric", spec.X)
	}
	yc, err = t.Column(spec.Y)
	if err != nil {
		return nil, nil, nil, err
	}
	if yc.Type != Float {
		return nil, nil, nil, fmt.Errorf("dataset: y attribute %q must be numeric", spec.Y)
	}
	return zc, xc, yc, nil
}

type point struct{ x, y float64 }

// duplicateErr is the AggNone-with-duplicates extraction error.
func duplicateErr(spec ExtractSpec, z string, x float64) error {
	return fmt.Errorf("dataset: multiple y values at %s=%q, %s=%v; specify an aggregation",
		spec.Z, z, spec.X, x)
}

func aggregate(pts []point, a Agg) float64 {
	switch a {
	case AggCount:
		return float64(len(pts))
	case AggSum:
		var sum float64
		for _, p := range pts {
			sum += p.y
		}
		return sum
	case AggMin:
		min := pts[0].y
		for _, p := range pts[1:] {
			if p.y < min {
				min = p.y
			}
		}
		return min
	case AggMax:
		max := pts[0].y
		for _, p := range pts[1:] {
			if p.y > max {
				max = p.y
			}
		}
		return max
	default: // AggAvg and AggNone (single point)
		var sum float64
		for _, p := range pts {
			sum += p.y
		}
		return sum / float64(len(pts))
	}
}

// InRanges reports whether x falls inside any of the inclusive [start, end]
// windows: the LOCATION push-down's range test, used by the executor's
// GROUP skip-mask.
func InRanges(x float64, ranges [][2]float64) bool {
	for _, r := range ranges {
		if x >= r[0] && x <= r[1] {
			return true
		}
	}
	return false
}
