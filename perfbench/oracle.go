package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
	"shapesearch/internal/nlparser"
	"shapesearch/internal/server"
)

// oracle computes reference top-k lists from the public executor API alone:
// each query is compiled with pruning off and ranked by the flat scan, one
// query at a time, over series the oracle extracts itself. A reply equal to
// the reference therefore shows pruned == unpruned, indexed == scan and
// batch == sequential for that request. All oracle work runs after the
// measured window.
type oracle struct {
	ix *dataset.Index
	nl *nlparser.Parser

	mu     sync.Mutex
	memo   map[string][]hit
	charts map[string][]dataset.Series
}

func newOracle(t *dataset.Table) *oracle {
	return &oracle{
		ix:     dataset.BuildIndex(t),
		nl:     nlparser.NewParser(),
		memo:   make(map[string][]hit),
		charts: make(map[string][]dataset.Series),
	}
}

// series returns the candidate series of plan p for request r. Filters on
// the x column are applied here, point by point, to a memoized extraction
// of the chart under the remaining filters: drilldown requests differ
// mostly in their x windows, and this also checks the server's filter
// kernels against a plain per-point test.
func (o *oracle) series(p *executor.Plan, r request) ([]dataset.Series, error) {
	lo, hi := math.Inf(-1), math.Inf(1)
	base := r
	base.Filters = nil
	for _, f := range r.Filters {
		switch {
		case f.Col == r.X && f.Op == "ge":
			lo = max(lo, f.Num)
		case f.Col == r.X && f.Op == "le":
			hi = min(hi, f.Num)
		default:
			base.Filters = append(base.Filters, f)
		}
	}
	spec := p.EffectiveSpec(base.spec())
	keyb, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	key := string(keyb)
	o.mu.Lock()
	all, ok := o.charts[key]
	o.mu.Unlock()
	if !ok {
		if all, err = o.ix.Extract(spec); err != nil {
			return nil, err
		}
		o.mu.Lock()
		o.charts[key] = all
		o.mu.Unlock()
	}
	out := make([]dataset.Series, 0, len(all))
	for _, s := range all {
		w := dataset.Series{Z: s.Z}
		for i, x := range s.X {
			if x >= lo && x <= hi {
				w.X, w.Y = append(w.X, x), append(w.Y, s.Y[i])
			}
		}
		if len(w.X) > 0 {
			out = append(out, w)
		}
	}
	return out, nil
}

// topK returns the reference top-k of query q over the chart and filters
// of request r.
func (o *oracle) topK(q query, r request) ([]hit, error) {
	keyb, err := json.Marshal(struct {
		Q query
		F []filter
		K int
	}{q, r.Filters, r.K})
	if err != nil {
		return nil, err
	}
	key := string(keyb)
	o.mu.Lock()
	want, ok := o.memo[key]
	o.mu.Unlock()
	if ok {
		return want, nil
	}
	sq, err := parseQuery(nil, -1, o.nl, q)
	if err != nil {
		return nil, err
	}
	opts := executor.DefaultOptions()
	opts.K, opts.Pruning, opts.Parallelism = r.K, false, 1
	plan, err := executor.Compile(sq, opts)
	if err != nil {
		return nil, err
	}
	series, err := o.series(plan, r)
	if err != nil {
		return nil, err
	}
	res, err := plan.Run(series)
	if err != nil {
		return nil, err
	}
	want = toHits(res)
	o.mu.Lock()
	o.memo[key] = want
	o.mu.Unlock()
	return want, nil
}

// check reports why rec is not a correct reply, or "" when it is.
func (o *oracle) check(rec searchRec) string {
	if rec.err != "" {
		return rec.err
	}
	for i, q := range rec.req.queries() {
		want, err := o.topK(q, rec.req)
		if err != nil {
			return fmt.Sprintf("oracle: %v", err)
		}
		if d := diffHits(rec.results[i], want); d != "" {
			return fmt.Sprintf("query %d (%s%v): %s", i, q.Query, q.Sketch, d)
		}
	}
	return ""
}

// verify checks every recorded search on GOMAXPROCS goroutines and returns
// the number that failed and the first failure's reason.
func (o *oracle) verify(recs []searchRec) (failed int, first string) {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if why := o.check(recs[i]); why != "" {
					mu.Lock()
					if failed == 0 {
						first = why
					}
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	for i := range recs {
		next <- i
	}
	close(next)
	wg.Wait()
	return failed, first
}

// diffHits compares two ranked lists exactly: same length, same z in the
// same order, bit-identical scores.
func diffHits(got, want []hit) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Z != want[i].Z || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Sprintf("rank %d is %s %v, want %s %v", i, got[i].Z, got[i].Score, want[i].Z, want[i].Score)
		}
	}
	return ""
}

// checkIngest asks the warm-up searches of the ingest workload again on the
// live server and compares each with the same search on a fresh server that
// registered base + every applied batch in one table, and with the
// unpruned flat scan over that table. It returns the number of searches
// checked, how many failed, and the first failure's reason.
func checkIngest(srv *server.Server, in *inputs, applied []*dataset.Table) (checked, failed int, first string) {
	tbl, err := dataset.Concat(append([]*dataset.Table{in.table}, applied...)...)
	if err != nil {
		return 1, 1, "concatenating base and batches: " + err.Error()
	}
	o := newOracle(tbl)
	fresh := server.New()
	fresh.Register(in.dataset, tbl)
	for _, r := range in.warmup {
		checked++
		got := search(srv, r)
		why := o.check(got)
		if why == "" {
			if want := search(fresh, r); want.err != "" {
				why = "fresh registration: " + want.err
			} else {
				why = diffHits(got.results[0], want.results[0])
			}
		}
		if why != "" {
			if failed == 0 {
				first = why
			}
			failed++
		}
	}
	return checked, failed, first
}
