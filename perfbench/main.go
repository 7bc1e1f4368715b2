// Command perfbench is the repository benchmark. It generates seeded
// inputs with internal/gen, registers them on an in-process server.New()
// and drives Server.ServeHTTP and Server.AppendRows from one process, with
// no sockets, for one of three workloads (explore, drilldown, ingest).
//
// An untraced run (-trace 0) measures the end-to-end metrics. A traced run
// (-trace 1) measures half a window the same way, then replays that
// window's requests through each layer's public functions with a span
// around every call, and reports the per-layer metrics. Every reply is
// checked against references computed from the public executor API after
// the window closes. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	go run . -workload explore -seed 1 -seconds 15 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"shapesearch/internal/dataset"
	"shapesearch/internal/server"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []metricDef{
	{"search_p50_ms", "ms"},
	{"search_p99_ms", "ms"},
	{"search_qps", "1/s"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

type metricDef struct{ name, unit string }

// perLayer lists the metrics of a traced run, with their units. Every
// timed span reports p50, p99 and its share of the summed request time.
var perLayer = func() []metricDef {
	var defs []metricDef
	for k := spRegexParse; k < numSpanKinds; k++ {
		defs = append(defs, spanDefs(spanNames[k])...)
	}
	defs = append(defs, spanDefs("server.glue")...)
	return append(defs,
		metricDef{"shape.chains_per_query", "count"},
		metricDef{"dataset.rows_per_series", "count"},
		metricDef{"shapeindex.visited_frac", "ratio"},
		metricDef{"executor.scored_frac", "ratio"},
		metricDef{"server.plan_cache_hit_frac", "ratio"},
		metricDef{"server.reply_kb", "KB"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.alloc_kb_per_req", "KB"},
		metricDef{"runtime.cpu_util", "ratio"},
		metricDef{"append_p50_ms", "ms"},
		metricDef{"append_p99_ms", "ms"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"trace.spans_per_req", "count"},
		metricDef{"trace.span_cost_ns", "ns"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

func spanDefs(name string) []metricDef {
	return []metricDef{{name + ".p50_ms", "ms"}, {name + ".p99_ms", "ms"}, {name + ".share", "ratio"}}
}

// A run sets the server up at least minSetups times, and again while less
// than setupBudget has passed, up to maxSetups; setup_s is the median.
const (
	minSetups   = 7
	maxSetups   = 31
	setupBudget = 1500 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "workload: explore, drilldown or ingest")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced replay reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload explore|drilldown|ingest, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(os.Stdout, wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// setUp builds a fresh server, registers the workload's table and sends
// the warm-up requests. It is what setup_s times.
func setUp(in *inputs) (*server.Server, error) {
	srv := server.New()
	srv.Register(in.dataset, in.table)
	for _, r := range in.warmup {
		if rec := search(srv, r); rec.err != "" {
			return nil, fmt.Errorf("warm-up search: %s", rec.err)
		}
	}
	return srv, nil
}

// run executes one benchmark run and writes a human-readable report to
// out; the caller prints the returned result. tiny shrinks the inputs, for
// tests.
func run(out io.Writer, wl workload, seed int64, window time.Duration, traced, tiny bool) (*result, error) {
	seconds := window.Seconds()
	in := wl.gen(seed, tiny, seconds)
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g mode=%s\n", wl.name, seed, window.Seconds(), mode)
	fmt.Fprintf(out, "# host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	fmt.Fprintf(out, "# corpus: %s\n", in.corpus)
	load := fmt.Sprintf("%d closed-loop search client(s)", wl.clients)
	if wl.appendRate > 0 {
		load += fmt.Sprintf(", open-loop appends at %g batches/s", wl.appendRate)
	}
	fmt.Fprintf(out, "# load: %s\n# why: %s\n", load, wl.why)

	srv, setups, err := setUpRepeatedly(in)
	if err != nil {
		return nil, err
	}
	if traced {
		window /= 2
	}
	// The discarded set-ups' garbage is collected before the window opens,
	// not inside it.
	runtime.GC()
	lr := drive(srv, wl, in, seed, window)
	// The live heap is read while the benchmark holds only the server, the
	// table registered on it and the decoded replies: no batch tables and
	// no copies of the base rows.
	in.batches = nil
	heap := 0.0
	if !traced {
		heap = heapLiveMB()
	}
	if wl.appendRate > 0 {
		// The server grew the registered table in place; generate the
		// base rows and the batches again for the check and the replay.
		in = wl.gen(seed, tiny, seconds)
	}

	res := &result{Metrics: make(map[string]metric)}
	searches := lr.allSearches()
	first := check(res, srv, in, lr, searches)
	lat := make([]float64, len(searches))
	for i, r := range searches {
		lat[i] = ms(r.lat)
	}
	var appendLat []float64
	for _, a := range lr.appends {
		appendLat = append(appendLat, ms(a.lat))
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if traced {
		// The check is done with in.table, so the mirror may grow it in
		// place.
		rr, err := replay(newMirror(in.table), lr, in)
		if err != nil {
			return nil, err
		}
		if rr.mismatches > 0 && res.Failed == 0 {
			first = rr.first
		}
		res.Failed += rr.mismatches
		setPerLayer(set, lr, rr, searches, quantile(lat, 0.5))
	} else {
		set("search_p50_ms", "ms", quantile(lat, 0.5))
		set("search_p99_ms", "ms", quantile(lat, 0.99))
		set("search_qps", "1/s", float64(len(lat))/lr.end.Sub(lr.start).Seconds())
		set("setup_s", "s", median(setups))
		set("heap_live_mb", "MB", heap)
	}
	res.Correct = res.Failed == 0

	if first != "" {
		fmt.Fprintf(out, "# FAILED: %s\n", first)
	}
	fmt.Fprintf(out, "# %d searches (%d beyond p99), setup median of %d\n",
		len(lat), len(lat)-int(math.Ceil(0.99*float64(len(lat)))), len(setups))
	if len(appendLat) > 0 {
		fmt.Fprintf(out, "append_p50_ms %.4f ms\nappend_p99_ms %.4f ms\n", quantile(appendLat, 0.5), quantile(appendLat, 0.99))
	} else if !traced {
		fmt.Fprintf(out, "append_p50_ms n/a ms\nappend_p99_ms n/a ms\n")
	}
	fmt.Fprintf(out, "fail_frac %.6f ratio (%d of %d)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// setUpRepeatedly sets the server up at least minSetups times, and again
// while less than setupBudget has passed, up to maxSetups. It returns the
// last server and every set-up's time in seconds.
func setUpRepeatedly(in *inputs) (*server.Server, []float64, error) {
	var (
		srv    *server.Server
		setups []float64
		spent  time.Duration
	)
	for len(setups) < maxSetups && (len(setups) < minSetups || spent < setupBudget) {
		runtime.GC()
		t := time.Now()
		var err error
		if srv, err = setUp(in); err != nil {
			return nil, nil, err
		}
		d := time.Since(t)
		spent += d
		setups = append(setups, d.Seconds())
	}
	return srv, setups, nil
}

// check verifies the window's outputs into res.Attempted and res.Failed
// and returns the first failure's reason. Every search and append is an
// attempt; a non-200 reply, a wrong answer or an append error fails it.
// With appends, searches racing them have no single reference state: they
// must succeed, and the final searches must match a fresh build.
func check(res *result, srv *server.Server, in *inputs, lr *loadResult, searches []searchRec) string {
	var first string
	fail := func(why string) {
		if res.Failed == 0 {
			first = why
		}
		res.Failed++
	}
	res.Attempted = len(searches) + len(lr.appends)
	if len(in.batches) == 0 {
		n, why := newOracle(in.table).verify(searches)
		if n > 0 {
			first, res.Failed = why, n
		}
		return first
	}
	var applied []*dataset.Table
	for _, a := range lr.appends {
		if a.err != nil {
			fail("append: " + a.err.Error())
		} else {
			applied = append(applied, in.batches[a.batch])
		}
	}
	for _, r := range searches {
		if r.err != "" {
			fail(r.err)
		}
	}
	n, bad, why := checkIngest(srv, in, applied)
	res.Attempted += n
	for i := 0; i < bad; i++ {
		fail("final search: " + why)
	}
	return first
}

// setPerLayer reports the traced run's per-layer metrics: span times and
// shares from the replay, counters from the replay and the window's
// replies, and runtime counters read at the window's edges. The window
// compiles nothing, as every plan is cached in the warm-up, so
// executor.compile is taken from the replayed warm-up: its cold compiles
// and their share of the warm-up's time.
func setPerLayer(set func(name, unit string, v float64), lr *loadResult, rr *replayResult, searches []searchRec, searchP50 float64) {
	ls, warm := layers(rr.logs, rr.serverTime), layers([]*spanLog{rr.warm}, nil)
	for k := spRegexParse; k < numSpanKinds; k++ {
		src := ls
		if k == spCompile {
			src = warm
		}
		setSpan(set, spanNames[k], src.self[k], src.sum[k], src.total)
	}
	setSpan(set, "server.glue", ls.glue, ls.glueSum, ls.total)
	var c spanLog
	for _, l := range rr.logs {
		c.normalizes += l.normalizes
		c.chains += l.chains
		c.extractRows += l.extractRows
		c.extractSeries += l.extractSeries
		c.candidates += l.candidates
		c.visited += l.visited
		c.scored += l.scored
	}
	hits, replyKB := 0, make([]float64, len(searches))
	for i, r := range searches {
		if r.planHit {
			hits++
		}
		replyKB[i] = float64(r.bytes) / 1024
	}
	var appendLat, late []float64
	for _, a := range lr.appends {
		appendLat = append(appendLat, ms(a.lat))
		late = append(late, ms(a.late))
	}
	ops := len(searches) + len(lr.appends)
	cost := spanCostNs()
	perOp := ratio(ls.spans, rr.ops)
	set("shape.chains_per_query", "count", ratio(c.chains, c.normalizes))
	set("dataset.rows_per_series", "count", ratio(c.extractRows, c.extractSeries))
	set("shapeindex.visited_frac", "ratio", ratio(c.visited, c.candidates))
	set("executor.scored_frac", "ratio", ratio(c.scored, c.candidates))
	set("server.plan_cache_hit_frac", "ratio", ratio(hits, len(searches)))
	set("server.reply_kb", "KB", median(replyKB))
	set("runtime.gc_cpu_frac", "ratio", lr.rt.gcFrac())
	set("runtime.alloc_kb_per_req", "KB", lr.rt.allocBytes/1024/float64(max(ops, 1)))
	set("runtime.cpu_util", "ratio", lr.rt.cpuUtil())
	set("append_p50_ms", "ms", quantile(appendLat, 0.5))
	set("append_p99_ms", "ms", quantile(appendLat, 0.99))
	set("loadgen.late_p99_ms", "ms", quantile(late, 0.99))
	set("trace.spans_per_req", "count", perOp)
	set("trace.span_cost_ns", "ns", cost)
	set("trace.overhead_frac", "ratio", perOp*cost/1e6/searchP50)
}

// setSpan reports a span's p50 and p99 self time and its share of the
// summed request time.
func setSpan(set func(name, unit string, v float64), name string, self []float64, sum, total float64) {
	set(name+".p50_ms", "ms", quantile(self, 0.5))
	set(name+".p99_ms", "ms", quantile(self, 0.99))
	share := 0.0
	if total > 0 {
		share = sum / total
	}
	set(name+".share", "ratio", share)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuModel reads the processor model name for the report's provenance.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
