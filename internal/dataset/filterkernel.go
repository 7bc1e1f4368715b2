package dataset

import "fmt"

// Vectorized filter kernels: a filter conjunction is validated and compiled
// once per extraction into a FilterProgram, then applied over whole column
// slices into a selection bitmap — no per-row error checks or interface
// dispatch in the hot loop, unlike the legacy Filter.matches path. The
// bitmap is a []uint64 bitset with one bit per row.

// FilterProgram is a compiled, validated filter conjunction over one table.
// Compile it once (CompileFilters), run it over the table's rows with Run.
// A nil *FilterProgram selects every row.
type FilterProgram struct {
	kernels []kernel
	rows    int
}

// kernel fills (first pass) or intersects (later passes) the selection
// bitmap with one predicate's matches over the whole column.
type kernel func(sel []uint64, first bool)

// CompileFilters validates the filter conjunction against the table —
// column existence and operator/type compatibility, with the same error
// messages as the legacy per-row path — and compiles it into vectorized
// kernels. When an encoding is supplied via enc (may be nil), string
// predicates use the dictionary: Eq sets its bits from the value's posting
// list and Ne compares integer codes. Posting kernels run first, so every
// later kernel skips the words they left all-zero.
func CompileFilters(t *Table, filters []Filter, enc func(col int) *zEncoding) (*FilterProgram, error) {
	if len(filters) == 0 {
		return nil, nil
	}
	p := &FilterProgram{rows: t.NumRows()}
	var scans []kernel
	for _, f := range filters {
		ci, ok := t.byName[f.Col]
		if !ok {
			return nil, fmt.Errorf("dataset: no column %q", f.Col)
		}
		c := &t.cols[ci]
		if c.Type == String {
			if f.Op != Eq && f.Op != Ne {
				return nil, fmt.Errorf("dataset: operator %s not supported on string column %q", f.Op, f.Col)
			}
			var e *zEncoding
			if enc != nil {
				e = enc(ci)
			}
			if e != nil && f.Op == Eq {
				p.kernels = append(p.kernels, postingKernel(e, f.Str))
			} else {
				scans = append(scans, stringKernel(c.Strings, e, f.Op, f.Str))
			}
			continue
		}
		if f.Op < Eq || f.Op > Ge {
			return nil, fmt.Errorf("dataset: unknown operator %d", int(f.Op))
		}
		scans = append(scans, floatKernel(c.Floats, f.Op, f.Num))
	}
	p.kernels = append(p.kernels, scans...)
	return p, nil
}

// Run evaluates the program over all rows into a fresh selection bitmap.
func (p *FilterProgram) Run() []uint64 {
	sel := make([]uint64, (p.rows+63)/64)
	for i, k := range p.kernels {
		k(sel, i == 0)
	}
	return sel
}

// selected reports bit row of the bitmap; a nil bitmap selects everything.
func selected(sel []uint64, row int) bool {
	return sel == nil || sel[row>>6]&(1<<(uint(row)&63)) != 0
}

// floatKernel compares a whole float column against a constant. The
// operator switch sits outside the row loop, so each loop body is a single
// branch-predictable comparison accumulated into 64-row words.
func floatKernel(vals []float64, op FilterOp, num float64) kernel {
	return func(sel []uint64, first bool) {
		n := len(vals)
		switch op {
		case Eq:
			applyWords(sel, first, n, func(i int) bool { return vals[i] == num })
		case Ne:
			applyWords(sel, first, n, func(i int) bool { return vals[i] != num })
		case Lt:
			applyWords(sel, first, n, func(i int) bool { return vals[i] < num })
		case Le:
			applyWords(sel, first, n, func(i int) bool { return vals[i] <= num })
		case Gt:
			applyWords(sel, first, n, func(i int) bool { return vals[i] > num })
		default: // Ge
			applyWords(sel, first, n, func(i int) bool { return vals[i] >= num })
		}
	}
}

// postingKernel selects the rows holding one dictionary value, straight
// from the value's posting list: O(matching rows) to fill the bitmap, and a
// merge over the list's words to intersect it. A value absent from the
// dictionary matches nothing.
func postingKernel(e *zEncoding, str string) kernel {
	return func(sel []uint64, first bool) {
		var rows []int32
		if code, present := e.lookup(str); present {
			rows = e.rowsOf(code)
		}
		if first {
			for _, r := range rows {
				sel[r>>6] |= 1 << (uint(r) & 63)
			}
			return
		}
		w := 0
		for i := 0; i < len(rows); {
			rw := int(rows[i] >> 6)
			clear(sel[w:rw])
			var word uint64
			for ; i < len(rows) && int(rows[i]>>6) == rw; i++ {
				word |= 1 << (uint(rows[i]) & 63)
			}
			sel[rw] &= word
			w = rw + 1
		}
		clear(sel[w:])
	}
}

// stringKernel compares a string column against a constant. With a
// dictionary encoding (Ne only: Eq runs as a postingKernel) the comparison
// is one integer inequality per row, and a constant not in the dictionary
// matches everything; without, it falls back to string comparison.
func stringKernel(vals []string, e *zEncoding, op FilterOp, str string) kernel {
	return func(sel []uint64, first bool) {
		if e != nil {
			code, present := e.lookup(str)
			if !present {
				applyWords(sel, first, len(vals), func(int) bool { return true })
				return
			}
			codes := e.codes
			applyWords(sel, first, len(codes), func(i int) bool { return codes[i] != code })
			return
		}
		if op == Eq {
			applyWords(sel, first, len(vals), func(i int) bool { return vals[i] == str })
		} else {
			applyWords(sel, first, len(vals), func(i int) bool { return vals[i] != str })
		}
	}
}

// applyWords runs a predicate over rows [0, n), packing results into 64-bit
// words: the first kernel writes the bitmap, later kernels AND into it
// (conjunctive filters), skipping whole words that are already all-zero.
func applyWords(sel []uint64, first bool, n int, match func(i int) bool) {
	for w := 0; w*64 < n; w++ {
		if !first && sel[w] == 0 {
			continue
		}
		lo := w * 64
		hi := lo + 64
		if hi > n {
			hi = n
		}
		var word uint64
		for i := lo; i < hi; i++ {
			if match(i) {
				word |= 1 << (uint(i) & 63)
			}
		}
		if first {
			sel[w] = word
		} else {
			sel[w] &= word
		}
	}
}
