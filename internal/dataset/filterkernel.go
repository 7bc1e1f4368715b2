package dataset

import "fmt"

// Vectorized filter kernels: a filter conjunction is validated and compiled
// once per extraction into a filterProgram, then applied over whole column
// slices into a selection bitmap — no per-row error checks or interface
// dispatch in the hot loop. The bitmap is a []uint64 bitset with one bit
// per row.

// filterProgram is a compiled, validated filter conjunction over one
// indexed table (see Index.compileFilters). A nil *filterProgram selects
// every row.
type filterProgram struct {
	kernels []kernel
	rows    int
}

// kernel fills (first pass) or intersects (later passes) the selection
// bitmap with one predicate's matches over the whole column.
type kernel func(sel []uint64, first bool)

// compileFilters validates the filter conjunction against the indexed
// table — column existence and operator/type compatibility — and compiles
// it into vectorized kernels. String predicates use the column's
// dictionary: Eq sets its bits from the value's posting list and Ne
// compares integer codes. Posting kernels run first, so every later kernel
// skips the words they left all-zero. Caller holds dataMu.
func (ix *Index) compileFilters(filters []Filter) (*filterProgram, error) {
	if len(filters) == 0 {
		return nil, nil
	}
	t := ix.t
	p := &filterProgram{rows: t.rows}
	var scans []kernel
	for _, f := range filters {
		ci, ok := t.byName[f.Col]
		if !ok {
			return nil, fmt.Errorf("dataset: no column %q", f.Col)
		}
		c := &t.cols[ci]
		if c.Type == String {
			e := ix.enc[ci].enc // string dictionaries are built eagerly
			switch f.Op {
			case Eq:
				p.kernels = append(p.kernels, postingKernel(e, f.Str))
			case Ne:
				scans = append(scans, neKernel(e, f.Str))
			default:
				return nil, fmt.Errorf("dataset: operator %s not supported on string column %q", f.Op, f.Col)
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

// run evaluates the program over all rows into a fresh selection bitmap.
func (p *filterProgram) run() []uint64 {
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

// neKernel selects the rows of a dictionary-encoded string column whose
// value differs from a constant: one integer inequality per row, and a
// constant not in the dictionary matches everything.
func neKernel(e *zEncoding, str string) kernel {
	return func(sel []uint64, first bool) {
		code, present := e.lookup(str)
		if !present {
			applyWords(sel, first, len(e.codes), func(int) bool { return true })
			return
		}
		codes := e.codes
		applyWords(sel, first, len(codes), func(i int) bool { return codes[i] != code })
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
