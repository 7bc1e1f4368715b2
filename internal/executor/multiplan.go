package executor

import (
	"context"
	"fmt"

	"shapesearch/internal/dataset"
	"shapesearch/internal/shape"
)

// MultiPlan executes a batch of compiled queries against one corpus in a
// single pass: every candidate visualization is grouped, bounded and scored
// once for all Q queries, through the pipeline (pipeline.go) a single Plan
// runs as its Q=1 case. The shared-evaluation machinery of one plan
// (interned unit signatures, the per-candidate score/fit memos, the stride
// grid and SegmentTree leaf skeleton, the bound-group dedup) extends across
// plans: CompileBatch and NewMultiPlan re-intern every query's unit
// signatures into one shared table, so per-candidate cost is solve_shared +
// Σ_q distinct_work(q) instead of Σ_q (solve + all work) — related queries
// (the production traffic shape: one user intent fanned out into dozens of
// near-identical trend queries, or many users typing variations of one
// question) share everything they have in common.
//
// Per query, nothing is shared that would change results: each query keeps
// its own top-k heap, its own atomic pruning floor, and its own sound upper
// bounds, so lossless pruning composes per query — a candidate is skipped
// only for the queries whose bound falls below *that query's* floor, and
// the deferred exact-verification stage runs per query. Results are
// byte-identical (score bits, ranking, Ranges, BreakXs) to running each
// plan alone, pinned by TestSearchBatchMatchesSequential.
//
// A MultiPlan is immutable after construction and safe for concurrent use.
type MultiPlan struct {
	// plans holds one shadow Plan per query: a shallow copy of the caller's
	// plan whose Options carry the batch-interned chainMeta. The underlying
	// plans passed to NewMultiPlan are never mutated.
	plans []*Plan
}

// CompileBatch compiles Q queries under one set of options and interns
// their unit signatures into one shared table (see MultiPlan). Options are
// normalized once and apply to every query.
func CompileBatch(qs []shape.Query, opts Options) (*MultiPlan, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("executor: CompileBatch needs at least one query")
	}
	plans := make([]*Plan, len(qs))
	for i, q := range qs {
		p, err := Compile(q, opts)
		if err != nil {
			return nil, fmt.Errorf("executor: batch query %d: %w", i, err)
		}
		plans[i] = p
	}
	return NewMultiPlan(plans)
}

// NewMultiPlan builds a batch executor from already-compiled plans (e.g.
// plans served by a plan cache). The plans' options must agree on every
// field that affects scoring or segmentation — algorithm, stride, width
// floor, pruning, push-down, thresholds, UDP registry, sketch config —
// because batch execution shares per-candidate work across queries and the
// shared entries must be exact for all of them. K may differ per query
// (each keeps its own heap); the first plan's Parallelism drives the pool.
// The input plans are not mutated and remain independently usable.
func NewMultiPlan(plans []*Plan) (*MultiPlan, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("executor: NewMultiPlan needs at least one plan")
	}
	for i, p := range plans[1:] {
		if err := compatibleOpts(plans[0].opts, p.opts); err != nil {
			return nil, fmt.Errorf("executor: batch plan %d incompatible with plan 0: %w", i+1, err)
		}
	}
	if len(plans) == 1 || plans[0].distance {
		// A lone plan's chainMeta already is its own signature table.
		// Distance rankings (DTW/Euclidean) have no unit signatures to
		// share; the batch still amortizes EXTRACT + GROUP per candidate
		// key, and each plan scans the shared candidates itself.
		return &MultiPlan{plans: plans}, nil
	}
	// Re-intern every query's signatures into one shared table and hand
	// each query a shadow plan whose chainMeta carries the global ids. The
	// shadow options are copies: the caller's plans keep their single-query
	// metadata untouched.
	st := newSigIntern()
	metas := make([]*chainMeta, len(plans))
	for i, p := range plans {
		metas[i] = st.add(p.norm)
	}
	st.finalize(metas...)
	mp := &MultiPlan{plans: make([]*Plan, len(plans))}
	for i, p := range plans {
		o := *p.opts
		o.chainMeta = metas[i]
		sp := *p
		sp.opts = &o
		mp.plans[i] = &sp
	}
	return mp, nil
}

// compatibleOpts verifies two normalized option sets may share batch
// evaluation state. Every field that flows into a unit score, a
// segmentation grid, a sound bound, or the candidate set must match; K and
// Parallelism are per-query/pool concerns and may differ.
func compatibleOpts(a, b *Options) error {
	switch {
	case a.Algorithm != b.Algorithm:
		return fmt.Errorf("algorithm %v != %v", a.Algorithm, b.Algorithm)
	case a.Stride != b.Stride:
		return fmt.Errorf("stride %d != %d", a.Stride, b.Stride)
	case a.MinSegmentFrac != b.MinSegmentFrac:
		return fmt.Errorf("minSegmentFrac %v != %v", a.MinSegmentFrac, b.MinSegmentFrac)
	case a.Pushdown != b.Pushdown:
		return fmt.Errorf("pushdown %v != %v", a.Pushdown, b.Pushdown)
	case a.Pruning != b.Pruning:
		return fmt.Errorf("pruning %v != %v", a.Pruning, b.Pruning)
	case a.QuantifierThreshold != b.QuantifierThreshold:
		return fmt.Errorf("quantifierThreshold %v != %v", a.QuantifierThreshold, b.QuantifierThreshold)
	case a.UDPs != b.UDPs && (len(a.UDPs.Names()) > 0 || len(b.UDPs.Names()) > 0):
		// Distinct empty registries (the per-compile default) define the
		// same (absent) patterns; distinct non-empty ones may not.
		return fmt.Errorf("distinct UDP registries")
	case a.SketchConfig != b.SketchConfig:
		return fmt.Errorf("sketchConfig %v != %v", a.SketchConfig, b.SketchConfig)
	case a.MaxExhaustivePoints != b.MaxExhaustivePoints:
		return fmt.Errorf("maxExhaustivePoints %d != %d", a.MaxExhaustivePoints, b.MaxExhaustivePoints)
	case a.DTWBand != b.DTWBand:
		return fmt.Errorf("dtwBand %d != %d", a.DTWBand, b.DTWBand)
	}
	return nil
}

// Queries reports the number of queries in the batch.
func (mp *MultiPlan) Queries() int { return len(mp.plans) }

// SearchContext runs the full EXTRACT → GROUP → SEGMENT → SCORE pipeline
// for the whole batch, returning one result slice per query in input order
// (see Plan.SearchContext for cancellation). Queries are grouped by
// CandidateGroups: queries whose effective spec and GROUP configuration
// agree (equal keys guarantee identical grouped candidates) extract once
// and score in one multi-query pass; each distinct key pays one EXTRACT +
// GROUP. A serving layer with a candidate cache groups the same way
// itself and calls RunGroupedContext per cached entry.
func (mp *MultiPlan) SearchContext(ctx context.Context, src dataset.Source, spec dataset.ExtractSpec) ([][]Result, error) {
	return runByKey(ctx, mp.plans, spec, func(lead *Plan) ([]dataset.Series, error) {
		return src.Extract(lead.EffectiveSpec(spec))
	})
}

// RunContext ranks pre-extracted series for every query in the batch. As
// in SearchContext, queries sharing a GROUP configuration (push-down filter
// windows and z-normalization — CandidateKey under an empty spec) group
// once.
func (mp *MultiPlan) RunContext(ctx context.Context, series []dataset.Series) ([][]Result, error) {
	return runByKey(ctx, mp.plans, dataset.ExtractSpec{}, func(*Plan) ([]dataset.Series, error) { return series, nil })
}

// RunGroupedContext ranks pre-grouped candidates for every query in the
// batch, with cooperative cancellation. The caller asserts the vizs are
// valid for all queries (same candidate key — the server guarantees this
// per candidate-cache entry).
func (mp *MultiPlan) RunGroupedContext(ctx context.Context, vizs []*Viz) ([][]Result, error) {
	return runPlans(ctx, mp.plans, len(vizs), func(i int) *Viz { return vizs[i] })
}

// CandidateGroups partitions plans by CandidateKey(spec), in
// first-appearance order (deterministic across runs), returning each
// group's plan indices: the plans of one group share one grouped candidate
// set, so they extract, group and score together. A lone plan is its own
// group and computes no key.
func CandidateGroups(plans []*Plan, spec dataset.ExtractSpec) [][]int {
	if len(plans) == 1 {
		return [][]int{{0}}
	}
	at := make(map[string]int, len(plans))
	var groups [][]int
	for i, p := range plans {
		k := p.CandidateKey(spec)
		g, ok := at[k]
		if !ok {
			g = len(groups)
			at[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// runByKey scores each candidate group of plans (CandidateGroups under
// spec) in one pipeline pass over the series its lead plan extracts.
// Candidates are grouped lazily, as viz(i) inside the pipeline, so GROUP
// runs on the worker pool.
func runByKey(ctx context.Context, plans []*Plan, spec dataset.ExtractSpec, extract func(lead *Plan) ([]dataset.Series, error)) ([][]Result, error) {
	groups := CandidateGroups(plans, spec)
	if len(groups) == 1 {
		return extractAndRun(ctx, plans, extract)
	}
	out := make([][]Result, len(plans))
	for _, idxs := range groups {
		part := make([]*Plan, len(idxs))
		for gi, qi := range idxs {
			part[gi] = plans[qi]
		}
		res, err := extractAndRun(ctx, part, extract)
		if err != nil {
			return nil, err
		}
		for gi, qi := range idxs {
			out[qi] = res[gi]
		}
	}
	return out, nil
}

// extractAndRun scores the series extract yields for plans' lead plan,
// grouping each candidate inside the pipeline. Extraction itself is not
// interruptible, but never starts for a request that is already dead — on
// large tables EXTRACT is the most expensive phase before scoring.
func extractAndRun(ctx context.Context, plans []*Plan, extract func(lead *Plan) ([]dataset.Series, error)) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	series, err := extract(plans[0])
	if err != nil {
		return nil, err
	}
	series, gcfg := plans[0].prepare(series)
	return runPlans(ctx, plans, len(series), func(i int) *Viz { return group(series[i], gcfg) })
}
