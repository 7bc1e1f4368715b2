package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyRun runs one workload on tiny inputs and returns the result and the
// printed report.
func tinyRun(t *testing.T, name string, seed int64, traced bool) (*result, string) {
	t.Helper()
	wl, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	var out strings.Builder
	res, err := run(&out, wl, seed, time.Second, traced, true)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, out.String()
}

func metricNames(res *result) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestTinyRunsReportEveryMetric runs every workload untraced and traced on
// tiny inputs: each run must be correct and print every metric of its mode
// by name with its unit.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, out := tinyRun(t, wl.name, 1, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", wl.name, traced, res.Correct, res.Failed, res.Attempted, out)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl.name, traced, d.name, m, d.unit)
				}
				if !strings.Contains(out, d.name) || !strings.Contains(out, " "+d.unit+"\n") {
					t.Errorf("%s traced=%v: report lacks %s with unit %s", wl.name, traced, d.name, d.unit)
				}
			}
			if !traced {
				for _, n := range []string{"append_p50_ms", "append_p99_ms", "fail_frac"} {
					if !strings.Contains(out, n) {
						t.Errorf("%s: report lacks %s", wl.name, n)
					}
				}
			}
		}
	}
}

// TestOracleRejectsCorruptedReply checks that the oracle accepts a real
// reply and rejects it once two results trade scores or places.
func TestOracleRejectsCorruptedReply(t *testing.T) {
	in := genExplore(1, true, 1)
	srv, err := setUp(in)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(in.table)
	rec := search(srv, in.warmup[0])
	if why := o.check(rec); why != "" {
		t.Fatalf("genuine reply rejected: %s", why)
	}
	res := rec.results[0]
	if len(res) < 2 || res[0].Score == res[1].Score {
		t.Fatalf("need two results with distinct scores, got %+v", res)
	}
	swap := func(f func(a, b *hit)) searchRec {
		bad := rec
		bad.results = [][]hit{append([]hit(nil), res...)}
		f(&bad.results[0][0], &bad.results[0][1])
		return bad
	}
	if o.check(swap(func(a, b *hit) { a.Score, b.Score = b.Score, a.Score })) == "" {
		t.Error("reply with two scores swapped accepted")
	}
	if o.check(swap(func(a, b *hit) { *a, *b = *b, *a })) == "" {
		t.Error("reply with two results swapped accepted")
	}
	if o.check(swap(func(a, b *hit) { a.Score = a.Score * (1 + 1e-15) })) == "" {
		t.Error("reply with a score off by one ulp-scale step accepted")
	}
}

// TestSeedChangesInputsNotMetrics checks that another seed draws other
// inputs but reports the same set of metric names.
func TestSeedChangesInputsNotMetrics(t *testing.T) {
	for _, wl := range workloads {
		a, b := wl.gen(1, true, 1), wl.gen(2, true, 1)
		if reflect.DeepEqual(a.table, b.table) {
			t.Errorf("%s: seeds 1 and 2 generated the same table", wl.name)
		}
		na := a.requests(rand.New(rand.NewSource(clientSeed(1, 0))))
		nb := b.requests(rand.New(rand.NewSource(clientSeed(2, 0))))
		same := true
		for i := 0; i < 20; i++ {
			same = same && reflect.DeepEqual(na(), nb())
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 drew the same requests", wl.name)
		}
	}
	r1, _ := tinyRun(t, "explore", 1, false)
	r2, _ := tinyRun(t, "explore", 2, false)
	if !reflect.DeepEqual(metricNames(r1), metricNames(r2)) {
		t.Errorf("metric names differ between seeds: %v vs %v", metricNames(r1), metricNames(r2))
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), want %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
