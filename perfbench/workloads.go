package main

import (
	"fmt"
	"math"
	"math/rand"

	"shapesearch/internal/dataset"
	"shapesearch/internal/gen"
	"shapesearch/internal/shape"
)

// query is one query of a /api/search body, in the server's wire form.
type query struct {
	Kind   string        `json:"kind"`
	Query  string        `json:"query,omitempty"`
	Sketch []shape.Point `json:"sketch,omitempty"`
}

// filter is one /api/search filter in the server's wire form.
type filter struct {
	Col string  `json:"col"`
	Op  string  `json:"op"`
	Num float64 `json:"num,omitempty"`
	Str string  `json:"str,omitempty"`
}

// request is one /api/search body: a single query (the embedded fields) or
// a batch (Queries), over one chart.
type request struct {
	query
	Queries []query  `json:"queries,omitempty"`
	Dataset string   `json:"dataset"`
	Z       string   `json:"z"`
	X       string   `json:"x"`
	Y       string   `json:"y"`
	Filters []filter `json:"filters,omitempty"`
	K       int      `json:"k"`
	Pruning bool     `json:"pruning"`
}

// queries lists the request's queries in order: the batch, or the single
// top-level query.
func (r request) queries() []query {
	if len(r.Queries) > 0 {
		return r.Queries
	}
	return []query{r.query}
}

// spec is the extraction spec the server derives from the request body.
func (r request) spec() dataset.ExtractSpec {
	s := dataset.ExtractSpec{Z: r.Z, X: r.X, Y: r.Y, Agg: dataset.AggNone}
	for _, f := range r.Filters {
		op := dataset.Eq
		switch f.Op {
		case "ge":
			op = dataset.Ge
		case "le":
			op = dataset.Le
		}
		s.Filters = append(s.Filters, dataset.Filter{Col: f.Col, Op: op, Num: f.Num, Str: f.Str})
	}
	return s
}

// inputs is everything one workload generates from a seed. The server sees
// only table, warmup, the drawn requests and batches.
type inputs struct {
	dataset string
	corpus  string
	table   *dataset.Table
	// warmup fills the plan and candidate caches before the window opens.
	warmup []request
	// requests returns one client's search stream, drawn from rng.
	requests func(rng *rand.Rand) func() request
	// batches are the open-loop appends in due order (ingest only).
	batches []*dataset.Table
}

// workload is one traffic mix.
type workload struct {
	name    string
	why     string
	clients int
	// appendRate is the open-loop append rate in batches per second; 0
	// means the workload does not append.
	appendRate float64
	gen        func(seed int64, tiny bool, seconds float64) *inputs
}

var workloads = []workload{
	{
		name:    "explore",
		why:     "1 closed-loop client asking 32 recurring regex/NL/sketch queries (1 in 4 a 4-query batch) of a cached 400x100 Stocks chart: scoring and index traversal only",
		clients: 1,
		gen:     genExplore,
	},
	{
		name:    "drilldown",
		why:     "2 closed-loop clients, category + x-window filters over a 1M-row, 10k-series table, so every request misses the candidate cache: extract, group, index build",
		clients: 2,
		gen:     genDrilldown,
	},
	{
		name:       "ingest",
		why:        "1 closed-loop client searching an 800-series tick chart beside open-loop 200-row out-of-order appends at 10 batches/s: append, patch, index update",
		clients:    1,
		appendRate: ingestRate,
		gen:        genIngest,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deck deals 0..n-1 in rounds, each round a fresh shuffle: every run asks
// each pool entry equally often, and the seed changes only the order. This
// keeps the request mix, and with it the latency tail, the same across
// seeds.
type deck struct {
	rng   *rand.Rand
	n     int
	cards []int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, n: n} }

func (d *deck) next() int {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(d.n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// explorePool is the recurring query pool of the explore workload: regex
// queries with fuzzy ?, OR, AND/NOT, modifiers, quantifiers and pinned
// locations, natural-language queries and blurry sketches. It fits the
// server's plan cache, so every measured request is a plan-cache hit.
func explorePool(days int) []query {
	rx := func(s string) query { return query{Kind: "regex", Query: s} }
	nl := func(s string) query { return query{Kind: "nl", Query: s} }
	sk := func(ys ...float64) query {
		pts := make([]shape.Point, len(ys))
		for i, y := range ys {
			pts[i] = shape.Point{X: float64(i) * float64(days-1) / float64(len(ys)-1), Y: y}
		}
		return query{Kind: "sketch", Sketch: pts}
	}
	third := days / 3
	return []query{
		rx("u ; d"),
		rx("d ; u"),
		rx("u ; d ; u"),
		rx("d ; u ; d"),
		rx("u ; d ; u ; d"),
		rx("d ; u ; d ; u"),
		rx("u ; f"),
		rx("f ; u"),
		rx("d ; f ; u"),
		rx("u? ; d ; u"),
		rx("u?;d;u?;d;u?"),
		rx("u | d"),
		rx("[p=up][p=flat] | [p=down][p=up]"),
		rx("[p=up] & ![p=flat]"),
		rx("[p=up, m=>>] ; d"),
		rx("d ; [p=up, m=>>]"),
		rx("[p=45] ; [p=flat]"),
		rx("(f ⊗ u ⊗ d ⊗ f)"),
		rx(fmt.Sprintf("[x.s=0, x.e=%d, p=up] ; [x.s=%d, x.e=%d, p=down]", third, third, days-1)),
		rx(fmt.Sprintf("[x.s=0, x.e=%d, p=down] ; [x.s=%d, x.e=%d, p=up]", 2*third, 2*third, days-1)),
		nl("rising then falling"),
		nl("falling then rising"),
		nl("show me stocks that are rising , then falling"),
		nl("rising and then sharply , falling"),
		nl("decreasing , then increasing , then decreasing"),
		nl("increasing then flat"),
		sk(0, 1, 0),
		sk(1, 0, 1),
		sk(0, 1, 0, 1, 0),
		sk(1, 0, 1, 0),
		sk(0, 1, 1),
		sk(1, 0.2, 0.6, 0),
	}
}

func genExplore(seed int64, tiny bool, _ float64) *inputs {
	stocks, days := 400, 100
	if tiny {
		stocks, days = 300, 40
	}
	pool := explorePool(days)
	chart := request{Dataset: "stocks", Z: "symbol", X: "day", Y: "price", K: 10, Pruning: true}
	in := &inputs{
		dataset: "stocks",
		corpus:  fmt.Sprintf("gen.Stocks %d series x %d days, pool of %d queries, 1 in 4 requests a 4-query batch", stocks, days, len(pool)),
		table:   gen.Stocks(stocks, days, seed),
	}
	for _, q := range pool {
		r := chart
		r.query = q
		in.warmup = append(in.warmup, r)
	}
	in.requests = func(rng *rand.Rand) func() request {
		singles := newDeck(rng, len(pool))
		batches := newDeck(rng, len(pool))
		kinds := newDeck(rng, 4) // card 0 of every four is a batch
		return func() request {
			r := chart
			if kinds.next() > 0 {
				r.query = pool[singles.next()]
				return r
			}
			// The pool size is a multiple of 4, so a batch never spans two
			// rounds and its queries are distinct.
			for i := 0; i < 4; i++ {
				r.Queries = append(r.Queries, pool[batches.next()])
			}
			return r
		}
	}
	return in
}

// drilldownPool holds the few simple queries drilldown requests draw from;
// the plan cache always hits, so requests differ only in their filters.
var drilldownPool = []query{
	{Kind: "regex", Query: "u ; d"},
	{Kind: "regex", Query: "d ; u"},
	{Kind: "regex", Query: "u ; f"},
	{Kind: "regex", Query: "f ; d"},
}

const drilldownCats = 25

func genDrilldown(seed int64, tiny bool, _ float64) *inputs {
	nSeries, points := 10000, 100
	if tiny {
		nSeries, points = 1500, 40
	}
	series := gen.DriftPeaksSeries(nSeries, points, 64, seed)
	// Categories are equal-sized, so every request extracts about the same
	// number of series whatever the seed.
	cats := make([]string, nSeries)
	for i := range cats {
		cats[i] = fmt.Sprintf("cat%02d", i%drilldownCats)
	}
	rand.New(rand.NewSource(seed)).Shuffle(nSeries, func(i, j int) { cats[i], cats[j] = cats[j], cats[i] })
	rows := nSeries * points
	zs, cs := make([]string, 0, rows), make([]string, 0, rows)
	xs, ys := make([]float64, 0, rows), make([]float64, 0, rows)
	for si, s := range series {
		cat := cats[si]
		for i := range s.X {
			zs, cs = append(zs, s.Z), append(cs, cat)
			xs, ys = append(xs, s.X[i]), append(ys, s.Y[i])
		}
	}
	tbl, err := dataset.New(
		dataset.Column{Name: "z", Type: dataset.String, Strings: zs},
		dataset.Column{Name: "cat", Type: dataset.String, Strings: cs},
		dataset.Column{Name: "x", Type: dataset.Float, Floats: xs},
		dataset.Column{Name: "y", Type: dataset.Float, Floats: ys},
	)
	if err != nil {
		panic(err) // impossible: the columns are built equal-length
	}
	chart := request{Dataset: "drift", Z: "z", X: "x", Y: "y", K: 10, Pruning: true}
	minW, maxW := points*2/5, points-1
	draw := func(rng *rand.Rand, q query) request {
		r := chart
		r.query = q
		w := minW + rng.Intn(maxW-minW+1)
		lo := rng.Intn(points - w + 1)
		r.Filters = []filter{
			{Col: "cat", Op: "eq", Str: fmt.Sprintf("cat%02d", rng.Intn(drilldownCats))},
			{Col: "x", Op: "ge", Num: float64(lo)},
			{Col: "x", Op: "le", Num: float64(lo + w - 1)},
		}
		return r
	}
	in := &inputs{
		dataset: "drift",
		corpus: fmt.Sprintf("gen.DriftPeaksSeries %d series x %d points (%d rows), %d categories, x windows %d-%d points",
			nSeries, points, rows, drilldownCats, minW, maxW),
		table: tbl,
	}
	wrng := rand.New(rand.NewSource(seed))
	for _, q := range drilldownPool {
		in.warmup = append(in.warmup, draw(wrng, q))
	}
	in.requests = func(rng *rand.Rand) func() request {
		qs := newDeck(rng, len(drilldownPool))
		return func() request { return draw(rng, drilldownPool[qs.next()]) }
	}
	return in
}

// ingestPool holds the pin-free queries the ingest client asks; pin-free
// plans keep their cached candidates patchable on append.
var ingestPool = []query{
	{Kind: "regex", Query: "u ; d"},
	{Kind: "regex", Query: "d ; u ; d"},
	{Kind: "regex", Query: "u ; d ; u ; d"},
	{Kind: "nl", Query: "rising then falling"},
}

// ingestRate is the open-loop append rate in batches per second, set below
// the rate at which appends start to queue behind each other.
const ingestRate = 10.0

func genIngest(seed int64, tiny bool, seconds float64) *inputs {
	nSeries, base, batchRows := 800, 48, 200
	if tiny {
		nSeries, base, batchRows = 600, 32, 50
	}
	nBatches := int(math.Ceil(ingestRate * seconds))
	tbl, batches := gen.StreamTicks(nSeries, base, nBatches, batchRows, seed, false)
	chart := request{Dataset: "ticks", Z: "z", X: "x", Y: "y", K: 10, Pruning: true}
	in := &inputs{
		dataset: "ticks",
		corpus: fmt.Sprintf("gen.StreamTicks %d series x %d base points, out of order, %d batches of %d rows at %g/s",
			nSeries, base, nBatches, batchRows, ingestRate),
		table:   tbl,
		batches: batches,
	}
	for _, q := range ingestPool {
		r := chart
		r.query = q
		in.warmup = append(in.warmup, r)
	}
	in.requests = func(rng *rand.Rand) func() request {
		singles := newDeck(rng, len(ingestPool))
		batches := newDeck(rng, len(ingestPool))
		// One request in 8 asks the whole pool as a batch. This heavy mode
		// holds the p99, so the tail measures batches on the patched path
		// rather than whichever few searches a burst of appends delayed.
		kinds := newDeck(rng, 8)
		return func() request {
			r := chart
			if kinds.next() > 0 {
				r.query = ingestPool[singles.next()]
				return r
			}
			for range ingestPool {
				r.Queries = append(r.Queries, ingestPool[batches.next()])
			}
			return r
		}
	}
	return in
}
