package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// stream is verbatim `go test -json -bench` output: a plain result line
// delivered in one event, a result split across two events (test2json
// emits the padded name before the timing run finishes) carrying a custom
// b.ReportMetric unit, a second split result without one, and the
// surrounding non-result events.
const stream = `{"Time":"2026-10-17T09:42:46.693067918Z","Action":"output","Package":"shapesearch/internal/executor","Output":"goos: linux\n"}
{"Time":"2026-10-17T09:42:46.693226314Z","Action":"run","Package":"shapesearch/internal/executor","Test":"BenchmarkIndexCrossover"}
{"Time":"2026-10-17T09:42:46.693231939Z","Action":"output","Package":"shapesearch/internal/executor","Test":"BenchmarkIndexCrossover","Output":"BenchmarkIndexCrossover\n"}
{"Time":"2026-10-17T09:42:47.133218124Z","Action":"output","Package":"shapesearch/internal/executor","Test":"BenchmarkIndexCrossover/DriftPeaks/N=256/Scan","Output":"BenchmarkIndexCrossover/DriftPeaks/N=256/Scan\n"}
{"Time":"2026-10-17T09:42:47.143032075Z","Action":"output","Package":"shapesearch/internal/executor","Test":"BenchmarkIndexCrossover/DriftPeaks/N=256/Scan","Output":"BenchmarkIndexCrossover/DriftPeaks/N=256/Scan-2         \t       2\t    384036 ns/op\t  221188 B/op\t     114 allocs/op\n"}
not json: a tool's stray line
{"Time":"2026-10-17T09:42:47.145140559Z","Action":"output","Package":"shapesearch/internal/executor","Test":"BenchmarkIndexCrossover/DriftPeaks/N=256/Indexed","Output":"BenchmarkIndexCrossover/DriftPeaks/N=256/Indexed-2      \t"}
{"Time":"2026-10-17T09:42:47.145182476Z","Action":"output","Package":"shapesearch/internal/executor","Test":"BenchmarkIndexCrossover/DriftPeaks/N=256/Indexed","Output":"       2\t    458710 ns/op\t         0.2500 visited_frac\t  111248 B/op\t      98 allocs/op\n"}
{"Time":"2026-10-17T09:42:47.533967568Z","Action":"output","Package":"shapesearch/internal/executor","Test":"BenchmarkGroupSeries","Output":"BenchmarkGroupSeries-2                                  \t"}
{"Time":"2026-10-17T09:42:47.534161235Z","Action":"output","Package":"shapesearch/internal/executor","Test":"BenchmarkGroupSeries","Output":"       2\t   1547409 ns/op\t 1833856 B/op\t    1201 allocs/op\n"}
{"Time":"2026-10-17T09:42:47.534179034Z","Action":"output","Package":"shapesearch/internal/executor","Output":"PASS\n"}
{"Time":"2026-10-17T09:42:47.537732221Z","Action":"pass","Package":"shapesearch/internal/executor","Elapsed":0.847}
`

func i64(n int64) *int64 { return &n }

func TestParseStream(t *testing.T) {
	got, err := parseStream(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	const pkg = "shapesearch/internal/executor"
	want := []result{
		{Name: "BenchmarkIndexCrossover/DriftPeaks/N=256/Scan-2", Package: pkg, Iterations: 2, NsPerOp: 384036,
			BytesPerOp: i64(221188), AllocsPerOp: i64(114)},
		{Name: "BenchmarkIndexCrossover/DriftPeaks/N=256/Indexed-2", Package: pkg, Iterations: 2, NsPerOp: 458710,
			BytesPerOp: i64(111248), AllocsPerOp: i64(98), Metrics: map[string]float64{"visited_frac": 0.25}},
		{Name: "BenchmarkGroupSeries-2", Package: pkg, Iterations: 2, NsPerOp: 1547409,
			BytesPerOp: i64(1833856), AllocsPerOp: i64(1201)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseStream:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestParseBenchLineMBPerSec(t *testing.T) {
	r, ok := parseBenchLine("p", "BenchmarkCopy-8   \t 1000\t  1200 ns/op\t 853.33 MB/s\t 3 widgets/op")
	if !ok {
		t.Fatal("result line not recognized")
	}
	if r.MBPerSec == nil || *r.MBPerSec != 853.33 {
		t.Fatalf("MB/s = %v, want 853.33", r.MBPerSec)
	}
	if !reflect.DeepEqual(r.Metrics, map[string]float64{"widgets/op": 3}) {
		t.Fatalf("metrics = %v, want widgets/op=3", r.Metrics)
	}
	for _, line := range []string{"BenchmarkFoo", "BenchmarkFoo-8 notanumber 12 ns/op", "ok  \tpkg\t0.1s"} {
		if _, ok := parseBenchLine("p", line); ok {
			t.Fatalf("%q parsed as a result", line)
		}
	}
}

func TestPrintTableMetrics(t *testing.T) {
	results, err := parseStream(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printTable(&buf, results)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want header + 3:\n%s", len(lines), buf.String())
	}
	if f := strings.Fields(lines[2]); f[len(f)-1] != "visited_frac=0.25" {
		t.Fatalf("Indexed row %q does not end with its custom metric", lines[2])
	}
	if f := strings.Fields(lines[1]); f[len(f)-1] != "114" {
		t.Fatalf("Scan row %q: want an empty metrics column after allocs", lines[1])
	}
}
