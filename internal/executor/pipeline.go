package executor

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"shapesearch/internal/shapeindex"
	"shapesearch/internal/topk"
)

// This file is the one scoring pipeline every bounded engine runs: the
// collective pruning loop of Section 6 — bound a candidate, skip it while
// its bound trails the live top-k floor, score the rest exactly — plus the
// deferred verification that makes pruning lossless. Single-query
// execution is the Q=1 case of batch execution: a run scores a []*Plan
// whose chainMeta share one signature table (a lone compiled plan
// qualifies as is; a MultiPlan's shadow plans share the batch table), so
// one candidate's bound caches and score/fit memos serve every query.
// Each stage exists once:
//
//   - bound: one bound-cache reset per candidate, then each query's sound
//     upper bound and their maximum (the scan key);
//   - score: per query, the floor check, evalVizShared with one memo reset
//     per candidate, and that query's sharedTopK;
//   - finish: per query, deferred verification, then (score desc, id asc)
//     selection.
//
// Per query nothing that affects results is shared: own heap, own floor,
// own bounds (a candidate is skipped only for queries whose bound trails
// *that query's* floor), own verification. Results are byte-identical to
// each plan's unpruned scan (TestPruningIsLossless,
// TestSearchBatchMatchesSequential, TestIndexedSearchMatchesScan).
//
// Two loops feed the stages: scan (flat, bound-first over n candidates)
// and traverse (best-first over the shards of a VizIndex). distanceRun has
// no bounds and stays outside.

// sharedTopK is the mutex-guarded heap every pipeline worker feeds; its
// floor (the current k-th best score) is the live pruning threshold. The
// floor is additionally published as an atomic float64 bit pattern, updated
// under the lock in add and read lock-free in the per-candidate hot path —
// the floor is consulted once per candidate per worker, and a monotone,
// possibly slightly stale threshold only affects how much is pruned, never
// what the final top-k is (pruned candidates are verified against the exact
// final floor).
type sharedTopK struct {
	mu        sync.Mutex
	heap      *topk.Heap[float64]
	floorBits atomic.Uint64
}

func newSharedTopK(k int) *sharedTopK {
	s := &sharedTopK{heap: topk.New[float64](k)}
	// −Inf means "no floor yet": it never raises a pruning threshold.
	s.floorBits.Store(math.Float64bits(math.Inf(-1)))
	return s
}

func (s *sharedTopK) add(score float64) {
	s.mu.Lock()
	s.heap.Add(score, score)
	if f, ok := s.heap.Floor(); ok {
		s.floorBits.Store(math.Float64bits(f))
	}
	s.mu.Unlock()
}

// fastFloor returns the last published floor without locking (−Inf until
// the heap fills). The floor only rises, so a stale read is merely a looser
// threshold.
func (s *sharedTopK) fastFloor() float64 {
	return math.Float64frombits(s.floorBits.Load())
}

func (s *sharedTopK) floor() (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heap.Floor()
}

// rec is one (candidate, query) outcome. A candidate's records sit
// together, one per query in plan order, so the stages address them as one
// Q-slice. Records are never discarded: one with v set and ok false was
// pruned and keeps its sound bound, so deferred verification can re-score
// it if the final floor fails to dominate it.
type rec struct {
	id  int // candidate position: the ranking tie-break
	v   *Viz
	ub  float64
	res Result
	ok  bool // res holds the exact score
}

// ranked is a candidate's scan key: its max-over-queries bound and the
// index of its records.
type ranked struct {
	ub float64
	i  int
}

// descThenAsc orders by a descending, then i ascending — the pipeline's one
// ordering rule, for scan order (bound, position) and selection (score,
// id), so every engine ranks identically under any interleaving.
func descThenAsc(a, b float64, i, j int) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return cmp.Compare(i, j)
}

// pipeline is one run's state.
type pipeline struct {
	ctx    context.Context
	plans  []*Plan
	prune  bool
	ecs    []*evalCtx    // per worker, pooled across runs
	stats  []IndexStats  // per worker: Leaves, Visited, Scored
	shared []*sharedTopK // per query

	errMu    sync.Mutex
	firstErr error
	abort    atomic.Bool
}

// newPipeline sizes the worker pool to the plans' Parallelism, capped at
// the number of work units (candidates or shards).
func newPipeline(ctx context.Context, plans []*Plan, units int) *pipeline {
	workers := max(1, min(plans[0].opts.Parallelism, units))
	pl := &pipeline{
		ctx: ctx, plans: plans, prune: plans[0].prune,
		ecs:    make([]*evalCtx, workers),
		stats:  make([]IndexStats, workers),
		shared: make([]*sharedTopK, len(plans)),
	}
	for w := range pl.ecs {
		pl.ecs[w] = getEvalCtx()
	}
	for q, p := range plans {
		pl.shared[q] = newSharedTopK(p.opts.K)
	}
	return pl
}

func (pl *pipeline) close() {
	for _, ec := range pl.ecs {
		putEvalCtx(ec)
	}
}

func (pl *pipeline) fail(err error) {
	pl.errMu.Lock()
	if pl.firstErr == nil {
		pl.firstErr = err
	}
	pl.errMu.Unlock()
	pl.abort.Store(true)
}

// err returns the run's first scoring error, else ctxErr.
func (pl *pipeline) err(ctxErr error) error {
	pl.errMu.Lock()
	defer pl.errMu.Unlock()
	if pl.firstErr != nil {
		return pl.firstErr
	}
	return ctxErr
}

// runPlans scores n candidates (viz(i) groups candidate i, nil skips it)
// for every plan in one pass, returning results indexed like plans. The
// plans must share one signature table and agree on compatibleOpts. It
// always flat-scans: only a caller that keeps candidate sets builds a shape
// index, and then runs runPlansIndexed.
func runPlans(ctx context.Context, plans []*Plan, n int, viz func(int) *Viz) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p0 := plans[0]
	if p0.distance {
		// Distance baselines scan per plan: their per-(alternative, length)
		// reference memos are plan-local. Several plans group each
		// candidate once, up front, instead of once per plan.
		if len(plans) > 1 {
			vizs := make([]*Viz, n)
			if err := forEachIndex(ctx, p0.opts.Parallelism, n, func(_, i int) { vizs[i] = viz(i) }); err != nil {
				return nil, err
			}
			viz = func(i int) *Viz { return vizs[i] }
		}
		out := make([][]Result, len(plans))
		for q, p := range plans {
			res, err := p.distanceRun(ctx, n, viz)
			if err != nil {
				return nil, err
			}
			out[q] = res
		}
		return out, nil
	}
	pl := newPipeline(ctx, plans, n)
	defer pl.close()
	return pl.scan(n, viz)
}

// runPlansIndexed ranks an index's candidates for every plan, filling st
// (when non-nil) with the traversal counters. Engines without a sound bound
// to traverse by (distance baselines, pruning off) run the flat pipeline
// over the indexed slice — same results, no skipping.
func runPlansIndexed(ctx context.Context, plans []*Plan, ix *VizIndex, st *IndexStats) ([][]Result, error) {
	if !plans[0].prune {
		if st != nil {
			*st = IndexStats{Candidates: ix.Len(), Visited: ix.Len(), Scored: ix.Len()}
		}
		return runPlans(ctx, plans, len(ix.vizs), func(i int) *Viz { return ix.vizs[i] })
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pl := newPipeline(ctx, plans, ix.ix.NumShards())
	defer pl.close()
	out, err := pl.traverse(ix)
	if err != nil {
		return nil, err
	}
	if st != nil {
		*st = IndexStats{Candidates: ix.Len()}
		for _, ws := range pl.stats {
			st.Leaves += ws.Leaves
			st.Visited += ws.Visited
			st.Scored += ws.Scored
		}
	}
	return out, nil
}

// scan is the flat loop. With pruning on, every candidate is grouped and
// bounded up front (the bounds must be recorded anyway for deferred
// verification) and scored in descending max-over-queries bound order:
// likely-strong candidates score first, so every query's floor tightens
// almost immediately even when strong matches are rare and late in input
// order — the max is the one key because a candidate strong for any query
// must score early for that query's floor. Order only affects how fast
// floors rise, never the result. Both passes dispatch candidates dynamically
// (forEachIndex), so expensive high-bound candidates spread across workers.
func (pl *pipeline) scan(n int, viz func(int) *Viz) ([][]Result, error) {
	Q := len(pl.plans)
	recs := make([]rec, n*Q)
	var order []ranked
	if pl.prune {
		order = make([]ranked, n)
		err := forEachIndex(pl.ctx, len(pl.ecs), n, func(w, i int) {
			order[i] = ranked{ub: math.Inf(-1), i: i}
			if v := viz(i); v != nil {
				order[i].ub = pl.bound(pl.ecs[w], recs[i*Q:(i+1)*Q], i, v)
			}
		})
		if err != nil {
			return nil, err
		}
		slices.SortFunc(order, func(a, b ranked) int { return descThenAsc(a.ub, b.ub, a.i, b.i) })
	}
	err := forEachIndex(pl.ctx, len(pl.ecs), n, func(w, i int) {
		if pl.abort.Load() {
			return
		}
		if pl.prune {
			i = order[i].i // bounded above; nil candidates have no records
		} else if v := viz(i); v != nil {
			for q := range Q {
				recs[i*Q+q] = rec{id: i, v: v}
			}
		}
		if rs := recs[i*Q : (i+1)*Q]; rs[0].v != nil {
			pl.score(w, rs)
		}
	})
	if err := pl.err(err); err != nil {
		return nil, err
	}
	return pl.finish([][]rec{recs})
}

// traverse is the indexed loop: each shard is descended best-first on
// the worker pool, skipping a subtree once its max-over-queries envelope
// bound trails the weakest query's floor (a subtree survives while any
// query may still want it). All shards feed the same per-query floors, so
// a floor raised in one shard prunes subtrees in every other. Each
// surviving leaf runs the bound and score stages over its members in
// descending max-bound order; members arrive id-ascending, so ties break by
// id exactly as in the flat scan. Unvisited members need no verification:
// their envelope bound, which dominates their exact score, trailed a floor
// that only rises.
func (pl *pipeline) traverse(ix *VizIndex) ([][]Result, error) {
	Q := len(pl.plans)
	meta := pl.plans[0].opts.chainMeta
	chunks := make([][]rec, ix.ix.NumShards())
	err := forEachIndex(pl.ctx, len(pl.ecs), len(chunks), func(w, si int) {
		ec, st := pl.ecs[w], &pl.stats[w]
		var (
			recs []rec
			ord  []ranked // leaf order, reused across the shard's leaves
		)
		ix.ix.Traverse(si,
			func(env *shapeindex.Summary) float64 {
				ec.resetBoundCaches(meta)
				ub := math.Inf(-1)
				for _, p := range pl.plans {
					if b := envelopeUpperBoundShared(ec, env, p.norm, p.opts); b > ub {
						ub = b
					}
				}
				return ub
			},
			pl.minFloor,
			boundEps,
			func(members []int32, _ float64) bool {
				if pl.abort.Load() || pl.ctx.Err() != nil {
					return false
				}
				st.Leaves++
				st.Visited += len(members)
				ord = ord[:0]
				for _, id := range members {
					v := ix.vizs[id]
					if v == nil {
						continue // update-nilled slot: folds unboundable, nothing to score
					}
					i := len(recs) / Q
					recs = append(recs, make([]rec, Q)...)
					ord = append(ord, ranked{ub: pl.bound(ec, recs[i*Q:], int(id), v), i: i})
				}
				slices.SortFunc(ord, func(a, b ranked) int { return descThenAsc(a.ub, b.ub, a.i, b.i) })
				for _, r := range ord {
					if !pl.score(w, recs[r.i*Q:(r.i+1)*Q]) {
						return false
					}
				}
				return true
			})
		chunks[si] = recs
	})
	if err := pl.err(err); err != nil {
		return nil, err
	}
	return pl.finish(chunks)
}

// minFloor is the traversal floor: the weakest query's (−Inf until every
// heap fills, so nothing is skipped before each query has K exact scores).
func (pl *pipeline) minFloor() float64 {
	f := math.Inf(1)
	for _, s := range pl.shared {
		if v := s.fastFloor(); v < f {
			f = v
		}
	}
	return f
}

// bound starts a candidate's records and fills each query's sound upper
// bound, returning their maximum. The bound caches reset once and then
// compose across queries: signature and bound-group ids are shared by
// every plan, so a unit bound common to several queries is derived once.
func (pl *pipeline) bound(ec *evalCtx, rs []rec, id int, v *Viz) float64 {
	ec.resetBoundCaches(pl.plans[0].opts.chainMeta)
	maxUB := math.Inf(-1)
	for q, p := range pl.plans {
		ub := soundUpperBoundShared(ec, v, p.norm, p.opts)
		rs[q] = rec{id: id, v: v, ub: ub}
		if ub > maxUB {
			maxUB = ub
		}
	}
	return maxUB
}

// score evaluates one candidate for every query whose floor does not
// dominate its bound (a skipped query's record stays pruned, with its
// bound). The score/fit memos reset before the first query actually
// evaluated and stay live for the rest, so every (signature, range) score
// and range fit is computed once per candidate for the whole batch; a
// skipped query must not consume the reset, or the memos would carry the
// previous candidate's entries. Returns false once the run has failed.
func (pl *pipeline) score(w int, rs []rec) bool {
	v, o := rs[0].v, pl.plans[0].opts
	if o.Algorithm == AlgExhaustive && v.N() > o.MaxExhaustivePoints {
		pl.fail(fmt.Errorf("executor: exhaustive search limited to %d points, series %q has %d",
			o.MaxExhaustivePoints, v.Series.Z, v.N()))
		return false
	}
	resetMemo := true
	for q, p := range pl.plans {
		r := &rs[q]
		if pl.prune {
			threshold := pl.shared[q].fastFloor() + p.opts.pruneThresholdBias
			if !math.IsInf(threshold, -1) && r.ub < threshold {
				continue
			}
		}
		sc, ranges := evalVizShared(pl.ecs[w], v, p.norm, p.opts, p.solver, resetMemo)
		resetMemo = false
		if pl.prune {
			// Without pruning nothing reads the floor, so skip the lock.
			pl.shared[q].add(sc)
		}
		pl.stats[w].Scored++
		r.res, r.ok = makeResult(v, sc, ranges), true
	}
	return true
}

// finish runs, per query, deferred exact verification and selection over
// the run's record chunks (records of all Q queries interleaved per
// candidate). Verification re-scores every record left pruned whose bound
// is not strictly dominated by the query's final floor — the heap saw every
// exact score, so its floor is final; while fewer than K candidates scored
// (full is false) every pruned record is verified. Rescoring only adds
// results at or above the floor, so one pass suffices: a record it leaves
// pruned carries a bound, hence an exact score, provably below the floor.
// With a sound bound this re-scores nothing; it exists so a bound
// regression costs work, never a wrong answer
// (TestDeferredVerificationRescues).
func (pl *pipeline) finish(chunks [][]rec) ([][]Result, error) {
	Q := len(pl.plans)
	out := make([][]Result, Q)
	for q, p := range pl.plans {
		if pl.prune {
			floor, full := pl.shared[q].floor()
			var rescue []*rec
			for _, c := range chunks {
				for i := q; i < len(c); i += Q {
					if r := &c[i]; r.v != nil && !r.ok && (!full || r.ub >= floor-boundEps) {
						rescue = append(rescue, r)
					}
				}
			}
			if len(rescue) > 0 {
				err := forEachIndex(pl.ctx, len(pl.ecs), len(rescue), func(w, j int) {
					if pl.abort.Load() {
						return
					}
					r := rescue[j]
					sc, ranges := evalViz(pl.ecs[w], r.v, p.norm, p.opts, p.solver)
					pl.stats[w].Scored++
					r.res, r.ok = makeResult(r.v, sc, ranges), true
				})
				if err := pl.err(err); err != nil {
					return nil, err
				}
			}
		}
		out[q] = selectTopK(chunks, q, Q, p.opts.K)
	}
	return out, nil
}

// selectTopK picks query q's top k scored records from chunks of Q
// interleaved queries by (score desc, id asc).
func selectTopK(chunks [][]rec, q, Q, k int) []Result {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	sel := make([]*rec, 0, total/Q)
	for _, c := range chunks {
		for i := q; i < len(c); i += Q {
			if c[i].ok {
				sel = append(sel, &c[i])
			}
		}
	}
	slices.SortFunc(sel, func(a, b *rec) int { return descThenAsc(a.res.Score, b.res.Score, a.id, b.id) })
	sel = sel[:min(k, len(sel))]
	out := make([]Result, len(sel))
	for i, r := range sel {
		out[i] = r.res
	}
	return out
}

// forEachIndex runs fn over [0, n) on the given number of workers (inline
// when one suffices), returning once all calls finish. Workers take indices
// from one shared atomic counter, so dispatch is dynamic and lock-free. fn
// receives its worker's index (always < workers) so callers can hand each
// worker private state. Cancellation is cooperative: once ctx is done no
// worker takes a further index, in-flight calls finish, and the context's
// error is returned.
func forEachIndex(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(0, i)
		}
		return ctx.Err()
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
