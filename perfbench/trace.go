package main

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/nlparser"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shape"
	"shapesearch/internal/sketch"
)

// spanKind names a layer boundary the replay times.
type spanKind uint8

const (
	spOp spanKind = iota // root: one replayed search, append or rebuild
	spRegexParse
	spNLParse
	spSketchInfer
	spNormalize
	spCompile
	spExtract
	spGroup
	spIndexBuild
	spScore
	spMultiScore
	spAppend
	spExtractGroups
	spIndexUpdate
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "regexlang.parse", "nlparser.parse", "sketch.infer", "shape.normalize",
	"executor.compile", "dataset.extract", "executor.group", "shapeindex.build",
	"executor.score", "executor.multiscore", "dataset.append",
	"dataset.extract_groups", "shapeindex.update",
}

// span is one timed call. Spans of one operation share op; parent indexes
// the caller's span in the same log (-1 for a root).
type span struct {
	kind       spanKind
	parent     int32
	op         int32
	start, end time.Duration
}

// spanLog is one goroutine's spans and counters, kept in memory until the
// run ends. Spans on a nil *spanLog record nothing, so the oracle shares
// the replay's parse code untraced.
type spanLog struct {
	origin time.Time
	op     int32
	spans  []span
	// Counters taken at the same boundaries as the spans.
	normalizes, chains          int
	extractRows, extractSeries  int
	candidates, visited, scored int
}

// begin opens a span of kind k under parent in the current operation.
func (l *spanLog) begin(k spanKind, parent int32) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{kind: k, parent: parent, op: l.op, start: time.Since(l.origin)})
	return int32(len(l.spans) - 1)
}

// beginOp opens the root span of operation op.
func (l *spanLog) beginOp(op int32) int32 {
	l.op = op
	return l.begin(spOp, -1)
}

func (l *spanLog) end(i int32) {
	if l != nil {
		l.spans[i].end = time.Since(l.origin)
	}
}

// parseQuery runs the front end the server's parseQuery picks for q.Kind,
// timing it as a child of parent.
func parseQuery(l *spanLog, parent int32, nl *nlparser.Parser, q query) (shape.Query, error) {
	var (
		sq  shape.Query
		err error
	)
	switch q.Kind {
	case "regex":
		s := l.begin(spRegexParse, parent)
		sq, err = regexlang.Parse(q.Query)
		l.end(s)
	case "nl":
		s := l.begin(spNLParse, parent)
		sq, _, err = nl.Parse(q.Query)
		l.end(s)
	case "sketch":
		s := l.begin(spSketchInfer, parent)
		sq, err = sketch.BlurryQuery(q.Sketch, sketch.DefaultConfig())
		l.end(s)
	default:
		err = fmt.Errorf("unknown query kind %q", q.Kind)
	}
	return sq, err
}

// Server defaults the mirror reproduces.
const (
	indexMinVizs     = 256  // a cached candidate set carries a shape index from this size
	candCacheCap     = 64   // candidate-cache entries
	rebuildThreshold = 1024 // patched ids before a full index rebuild
)

// cands is one mirrored candidate-cache entry.
type cands struct {
	key   string
	vizs  []*executor.Viz
	index *executor.VizIndex
	espec dataset.ExtractSpec
	plan  *executor.Plan
	zpos  map[string]int
}

// mirror replays requests through each layer's public functions in the
// order the server's handleSearch and patchOne call them, keeping its own
// plan cache (keyed by fingerprint, as the server's is) and LRU candidate
// cache so a layer is timed exactly when the server would run it.
type mirror struct {
	ix *dataset.Index
	nl *nlparser.Parser
	// active counts replayed searches in flight; each scores with
	// GOMAXPROCS / active workers, the budget the server's admission
	// control grants at that concurrency.
	active atomic.Int32

	mu    sync.Mutex
	plans map[string]*executor.Plan
	lru   *list.List // of *cands, most recent first
	cache map[string]*list.Element
	// appendMu serializes replayed appends, as the server's does.
	appendMu sync.Mutex
}

func newMirror(t *dataset.Table) *mirror {
	return &mirror{
		ix:    dataset.BuildIndex(t),
		nl:    nlparser.NewParser(),
		plans: make(map[string]*executor.Plan),
		lru:   list.New(),
		cache: make(map[string]*list.Element),
	}
}

func (m *mirror) lookup(key string) *cands {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.cache[key]; ok {
		m.lru.MoveToFront(e)
		return e.Value.(*cands)
	}
	return nil
}

func (m *mirror) store(c *cands) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.cache[c.key]; ok {
		e.Value = c
		m.lru.MoveToFront(e)
		return
	}
	m.cache[c.key] = m.lru.PushFront(c)
	if m.lru.Len() > candCacheCap {
		old := m.lru.Remove(m.lru.Back()).(*cands)
		delete(m.cache, old.key)
	}
}

func (m *mirror) entries() []*cands {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*cands, 0, m.lru.Len())
	for e := m.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*cands))
	}
	return out
}

func (m *mirror) remove(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.cache[key]; ok {
		m.lru.Remove(e)
		delete(m.cache, key)
	}
}

// plan mirrors the server's compilePlan: normalize for the fingerprint,
// compile only on a plan-cache miss.
func (m *mirror) plan(l *spanLog, parent int32, sq shape.Query, opts executor.Options) (*executor.Plan, error) {
	s := l.begin(spNormalize, parent)
	norm, err := shape.Normalize(sq)
	l.end(s)
	if err != nil {
		return nil, err
	}
	l.normalizes++
	l.chains += len(norm.Alternatives)
	key := fmt.Sprintf("%s|%v|%d|%v", norm.Fingerprint(), opts.Algorithm, opts.K, opts.Pruning)
	m.mu.Lock()
	p, ok := m.plans[key]
	m.mu.Unlock()
	if ok {
		return p, nil
	}
	s = l.begin(spCompile, parent)
	p, err = executor.Compile(sq, opts)
	l.end(s)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.plans[key] = p
	m.mu.Unlock()
	return p, nil
}

// candidates mirrors the server's fetchCandidates: on a cache miss,
// extract, group and, for large sets, build the shape index.
func (m *mirror) candidates(l *spanLog, parent int32, plan *executor.Plan, spec dataset.ExtractSpec) (*cands, error) {
	key := plan.CandidateKey(spec)
	if c := m.lookup(key); c != nil {
		return c, nil
	}
	espec := plan.EffectiveSpec(spec)
	s := l.begin(spExtract, parent)
	series, err := m.ix.Extract(espec)
	l.end(s)
	if err != nil {
		return nil, err
	}
	l.extractRows += m.ix.NumRows()
	l.extractSeries += len(series)
	s = l.begin(spGroup, parent)
	vizs := plan.GroupSeries(series)
	l.end(s)
	c := &cands{key: key, vizs: vizs, espec: espec, plan: plan}
	if len(vizs) >= indexMinVizs {
		s = l.begin(spIndexBuild, parent)
		c.index = executor.BuildVizIndex(vizs, 0)
		l.end(s)
	}
	m.store(c)
	return c, nil
}

func toHits(res []executor.Result) []hit {
	out := make([]hit, len(res))
	for i, r := range res {
		out[i] = hit{Z: r.Z, Score: r.Score}
	}
	return out
}

// search replays one /api/search request as operation op and returns its
// top-k lists.
func (m *mirror) search(l *spanLog, op int32, r request) ([][]hit, error) {
	root := l.beginOp(op)
	defer l.end(root)
	workers := max(1, runtime.GOMAXPROCS(0)/int(m.active.Add(1)))
	defer m.active.Add(-1)
	ctx := context.Background()
	opts := executor.DefaultOptions()
	opts.K, opts.Pruning = r.K, r.Pruning
	spec := r.spec()
	qs := r.queries()
	plans := make([]*executor.Plan, len(qs))
	for i, q := range qs {
		sq, err := parseQuery(l, root, m.nl, q)
		if err != nil {
			return nil, err
		}
		p, err := m.plan(l, root, sq, opts)
		if err != nil {
			return nil, err
		}
		plans[i] = p.WithParallelism(workers)
	}
	if len(r.Queries) == 0 {
		c, err := m.candidates(l, root, plans[0], spec)
		if err != nil {
			return nil, err
		}
		var res []executor.Result
		s := l.begin(spScore, root)
		if c.index != nil {
			var st executor.IndexStats
			res, err = plans[0].RunIndexedStatsContext(ctx, c.index, &st)
			l.end(s)
			l.candidates += st.Candidates
			l.visited += st.Visited
			l.scored += st.Scored
		} else {
			res, err = plans[0].RunGroupedContext(ctx, c.vizs)
			l.end(s)
		}
		return [][]hit{toHits(res)}, err
	}
	// A batch scores each group of queries sharing a candidate key in one
	// multi-query pass, groups in first-appearance order, as the server does.
	groups := make(map[string][]int)
	var order []string
	for i, p := range plans {
		k := p.CandidateKey(spec)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	out := make([][]hit, len(plans))
	for _, k := range order {
		idxs := groups[k]
		group := make([]*executor.Plan, len(idxs))
		for gi, qi := range idxs {
			group[gi] = plans[qi]
		}
		c, err := m.candidates(l, root, group[0], spec)
		if err != nil {
			return nil, err
		}
		s := l.begin(spMultiScore, root)
		mp, err := executor.NewMultiPlan(group)
		var res [][]executor.Result
		if err == nil && c.index != nil {
			res, err = mp.RunIndexedContext(ctx, c.index)
		} else if err == nil {
			res, err = mp.RunGroupedContext(ctx, c.vizs)
		}
		l.end(s)
		if err != nil {
			return nil, err
		}
		for gi, qi := range idxs {
			out[qi] = toHits(res[gi])
		}
	}
	return out, nil
}

// appendBatch replays Server.AppendRows as operation op: the index absorbs
// the rows, then every cached entry re-extracts and regroups only the
// touched groups and patches its shape index. It returns the entries whose
// patched index has gone stale enough for a rebuild.
func (m *mirror) appendBatch(l *spanLog, op int32, delta *dataset.Table) ([]*cands, error) {
	m.appendMu.Lock()
	defer m.appendMu.Unlock()
	root := l.beginOp(op)
	defer l.end(root)
	s := l.begin(spAppend, root)
	err := m.ix.Append(delta)
	l.end(s)
	if err != nil {
		return nil, err
	}
	var stale []*cands
	for _, c := range m.entries() {
		if !c.plan.PinFree() {
			m.remove(c.key)
			continue
		}
		touched, err := delta.DistinctValues(c.espec.Z)
		if err != nil {
			m.remove(c.key)
			continue
		}
		s := l.begin(spExtractGroups, root)
		series, err := m.ix.ExtractGroups(c.espec, touched)
		fresh := make([]*executor.Viz, len(series))
		for i := range series {
			if vs := c.plan.GroupSeries(series[i : i+1]); len(vs) == 1 {
				fresh[i] = vs[0]
			}
		}
		l.end(s)
		if c.zpos == nil {
			c.zpos = make(map[string]int, len(c.vizs))
			for i, v := range c.vizs {
				c.zpos[v.Series.Z] = i
			}
		}
		nc := *c
		nc.vizs = append([]*executor.Viz(nil), c.vizs...)
		changed := make([]int, 0, len(fresh))
		for i, v := range fresh {
			p, ok := c.zpos[series[i].Z]
			if !ok || v == nil {
				// A new or vanished group: the server splices or merges;
				// the mirror re-extracts on the next search instead.
				err = fmt.Errorf("group %q changed membership", series[i].Z)
				break
			}
			nc.vizs[p] = v
			changed = append(changed, p)
		}
		if err != nil {
			m.remove(c.key)
			continue
		}
		if c.index != nil {
			s := l.begin(spIndexUpdate, root)
			nc.index = c.index.Update(nc.vizs, changed)
			l.end(s)
			if nc.index.Staleness() >= rebuildThreshold {
				stale = append(stale, &nc)
			}
		}
		m.store(&nc)
	}
	return stale, nil
}

// rebuild replays the server's background full index rebuild of a stale
// entry as operation op, installing it only if no later patch replaced the
// entry meanwhile.
func (m *mirror) rebuild(l *spanLog, op int32, c *cands) {
	root := l.beginOp(op)
	s := l.begin(spIndexBuild, root)
	idx := executor.BuildVizIndex(c.vizs, 0)
	l.end(s)
	l.end(root)
	if m.lookup(c.key) == c {
		nc := *c
		nc.index = idx
		m.store(&nc)
	}
}

// replayResult is the traced replay of one window.
type replayResult struct {
	// warm holds the replayed warm-up, logs the replayed window.
	warm *spanLog
	logs []*spanLog
	// serverTime is the measured server time of each operation id, from
	// the untraced window; rebuilds, which run off the request path, have
	// none.
	serverTime map[int32]time.Duration
	ops        int
	mismatches int
	first      string
}

// replay re-runs the window's operations through the mirror on as many
// goroutines as the window had clients, plus one feeder replaying appends
// on the window's schedule. Replayed top-k lists must equal the replies of
// the window when no appends interleave.
func replay(m *mirror, lr *loadResult, in *inputs) (*replayResult, error) {
	// The mirror's caches start where the server's did: after the warm-up.
	warm := &spanLog{origin: time.Now()}
	for _, r := range in.warmup {
		if _, err := m.search(warm, -1, r); err != nil {
			return nil, fmt.Errorf("replaying warm-up: %w", err)
		}
	}
	rr := &replayResult{warm: warm, serverTime: make(map[int32]time.Duration)}
	var mu sync.Mutex
	fail := func(why string) {
		mu.Lock()
		defer mu.Unlock()
		if rr.mismatches == 0 {
			rr.first = why
		}
		rr.mismatches++
	}
	origin := time.Now()
	var wg sync.WaitGroup
	var next int32
	for c, recs := range lr.searches {
		l := &spanLog{origin: origin}
		rr.logs = append(rr.logs, l)
		base := next
		for i, rec := range recs {
			rr.serverTime[base+int32(i)] = rec.lat
		}
		next += int32(len(recs))
		wg.Add(1)
		go func(c int, recs []searchRec) {
			defer wg.Done()
			for i, rec := range recs {
				if rec.err != "" {
					continue
				}
				got, err := m.search(l, base+int32(i), rec.req)
				why := ""
				switch {
				case err != nil:
					why = err.Error()
				case len(lr.appends) == 0:
					for qi := range got {
						if why = diffHits(got[qi], rec.results[qi]); why != "" {
							break
						}
					}
				}
				if why != "" {
					fail(fmt.Sprintf("replay of client %d search %d: %s", c, i, why))
				}
			}
		}(c, recs)
	}
	if len(lr.appends) > 0 {
		l := &spanLog{origin: origin}
		rr.logs = append(rr.logs, l)
		base := next
		for i, a := range lr.appends {
			rr.serverTime[base+int32(i)] = a.took
		}
		next += int32(len(lr.appends))
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := next
			for i, a := range lr.appends {
				time.Sleep(time.Until(origin.Add(a.due.Sub(lr.start))))
				stale, err := m.appendBatch(l, base+int32(i), in.batches[a.batch])
				if err != nil {
					fail(fmt.Sprintf("replay of append %d: %v", i, err))
					continue
				}
				for _, c := range stale {
					m.rebuild(l, op, c)
					op++
				}
			}
		}()
	}
	wg.Wait()
	for _, l := range rr.logs {
		for _, s := range l.spans {
			if s.kind == spOp {
				rr.ops++
			}
		}
	}
	return rr, nil
}

// layerStats is the per-layer breakdown of a replay.
type layerStats struct {
	self [numSpanKinds][]float64 // self time per span, ms
	sum  [numSpanKinds]float64
	glue []float64 // per operation with a server time, ms
	// total is the summed request time: per operation, its replayed layer
	// time plus its glue.
	total, glueSum float64
	spans          int
}

// layers computes self times (a span's duration minus the part its child
// spans cover) and glue: an operation's server time minus the time of its
// replayed layer spans, floored at 0. Operations without a server time
// have no glue.
func layers(logs []*spanLog, serverTime map[int32]time.Duration) *layerStats {
	ls := &layerStats{}
	for _, l := range logs {
		child := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			ls.spans++
			if s.kind == spOp {
				layer := ms(child[i])
				glue := 0.0
				if st, ok := serverTime[s.op]; ok {
					glue = max(0, ms(st)-layer)
					ls.glue = append(ls.glue, glue)
				}
				ls.total += layer + glue
				ls.glueSum += glue
				continue
			}
			self := ms(s.end - s.start - child[i])
			ls.self[s.kind] = append(ls.self[s.kind], self)
			ls.sum[s.kind] += self
		}
	}
	return ls
}

// spanCostNs measures the cost of recording one span (begin + end into a
// growing log), as the median of several runs.
func spanCostNs() float64 {
	const n = 200_000
	var runs []float64
	for r := 0; r < 5; r++ {
		l := &spanLog{origin: time.Now()}
		t := time.Now()
		for i := 0; i < n; i++ {
			l.end(l.begin(spScore, -1))
		}
		runs = append(runs, float64(time.Since(t).Nanoseconds())/n)
	}
	return median(runs)
}
