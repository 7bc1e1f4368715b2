package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shapesearch/internal/dataset"
	"shapesearch/internal/server/faultinject"
)

// demoSearch is the request every overload test hammers with; identical
// requests make the byte-identical-results comparison meaningful.
func demoSearch() map[string]any {
	return map[string]any{
		"kind": "regex", "query": "u ; d",
		"dataset": "demo", "z": "z", "x": "x", "y": "y", "k": 3,
	}
}

// resultsJSON re-marshals just the Results of a search response. The full
// body carries lifetime plan-cache counters that legitimately differ
// between runs, so identity is asserted on the ranked results alone.
func resultsJSON(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp searchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal search response: %v (body %s)", err, body)
	}
	out, err := json.Marshal(resp.Results)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOverloadBurst pins the shedding contract under a schedule forced by
// the fault-injection harness: with concurrency 4 and queue depth 2, a
// 64-way burst against a gated scorer yields exactly 6 × 200 and 58 × 429
// — every 429 carrying a parseable Retry-After, every 200 byte-identical
// to an unloaded run, no shed request ever reaching the scorer, and the
// gauges back at zero afterwards.
func TestOverloadBurst(t *testing.T) {
	s := testServer(t,
		WithSearchConcurrency(4),
		WithSearchQueueDepth(2),
		WithSearchQueueWait(30*time.Second))
	gate := make(chan struct{})
	var scoreFires atomic.Int64
	restore := faultinject.Set("server.search.score", func() {
		scoreFires.Add(1)
		<-gate
	})
	defer restore()

	const n, slots = 64, 6 // 4 admitted + 2 queued
	type outcome struct {
		code       int
		retryAfter string
		body       []byte
	}
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(demoSearch()); err != nil {
				t.Error(err)
				return
			}
			req := httptest.NewRequest(http.MethodPost, "/api/search", &buf)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			outcomes[i] = outcome{
				code:       rec.Code,
				retryAfter: rec.Header().Get("Retry-After"),
				body:       rec.Body.Bytes(),
			}
		}(i)
	}
	// The queue is full once n−slots requests have been refused; only then
	// is the schedule pinned and the gate may open.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, shed := s.adm.counters(); shed == n-slots {
			break
		}
		if time.Now().After(deadline) {
			_, shed := s.adm.counters()
			t.Fatalf("shed count stuck at %d, want %d", shed, n-slots)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	restore() // the hook is process-global; the baseline below must not fire it

	baseline := doJSON(t, testServer(t), http.MethodPost, "/api/search", demoSearch())
	if baseline.Code != http.StatusOK {
		t.Fatalf("baseline status = %d", baseline.Code)
	}
	want := resultsJSON(t, baseline.Body.Bytes())

	var oks, sheds int
	for i, o := range outcomes {
		switch o.code {
		case http.StatusOK:
			oks++
			if got := resultsJSON(t, o.body); !bytes.Equal(got, want) {
				t.Errorf("request %d: loaded results differ from unloaded run:\n got %s\nwant %s", i, got, want)
			}
		case http.StatusTooManyRequests:
			sheds++
			if ra, err := strconv.Atoi(o.retryAfter); err != nil || ra < 1 {
				t.Errorf("request %d: 429 Retry-After = %q, want a positive integer", i, o.retryAfter)
			}
		default:
			t.Errorf("request %d: status = %d, want 200 or 429", i, o.code)
		}
	}
	if oks != slots || sheds != n-slots {
		t.Fatalf("burst outcome = %d OK + %d shed, want %d + %d", oks, sheds, slots, n-slots)
	}
	if fires := scoreFires.Load(); fires != slots {
		t.Fatalf("scorer entered %d times, want %d: shed requests must never consume a scoring worker", fires, slots)
	}
	if adm, shed := s.adm.counters(); adm != slots || shed != n-slots {
		t.Fatalf("lifetime counters = (%d admitted, %d shed), want (%d, %d)", adm, shed, slots, n-slots)
	}
	if adm, q, w := s.adm.snapshot(); adm != 0 || q != 0 || w != 0 {
		t.Fatalf("gauges after burst = (%d,%d,%d), want zeros", adm, q, w)
	}
}

// TestOverloadBurstNaturalTiming runs the same burst without any forced
// schedule: whatever the interleaving, every request resolves to 200 or
// 429, the admitted/shed split accounts for all of them, every success
// carries correct results, and the gauges drain to zero.
func TestOverloadBurstNaturalTiming(t *testing.T) {
	s := testServer(t,
		WithSearchConcurrency(2),
		WithSearchQueueDepth(2),
		WithSearchQueueWait(50*time.Millisecond))
	const n = 64
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(demoSearch()); err != nil {
				t.Error(err)
				return
			}
			req := httptest.NewRequest(http.MethodPost, "/api/search", &buf)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			codes[i] = rec.Code
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()

	want := resultsJSON(t, doJSON(t, testServer(t), http.MethodPost, "/api/search", demoSearch()).Body.Bytes())
	var oks, sheds uint64
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			oks++
			if got := resultsJSON(t, bodies[i]); !bytes.Equal(got, want) {
				t.Errorf("request %d: results differ under load", i)
			}
		case http.StatusTooManyRequests:
			sheds++
		default:
			t.Errorf("request %d: status = %d, want 200 or 429", i, code)
		}
	}
	if oks+sheds != n {
		t.Fatalf("outcomes = %d OK + %d shed, want %d total", oks, sheds, n)
	}
	adm, shed := s.adm.counters()
	if adm != oks || shed != sheds {
		t.Fatalf("counters = (%d,%d), responses say (%d,%d)", adm, shed, oks, sheds)
	}
	if a, q, w := s.adm.snapshot(); a != 0 || q != 0 || w != 0 {
		t.Fatalf("gauges after burst = (%d,%d,%d), want zeros", a, q, w)
	}
}

// TestQueuedDeadlineAnsweredFromQueue: a request whose deadline expires
// while it waits for a slot gets its 503 + Retry-After straight from the
// queue — the scorer never sees it.
func TestQueuedDeadlineAnsweredFromQueue(t *testing.T) {
	s := testServer(t,
		WithSearchConcurrency(1),
		WithSearchQueueDepth(4),
		WithSearchQueueWait(30*time.Second))
	gate := make(chan struct{})
	var scoreFires atomic.Int64
	restore := faultinject.Set("server.search.score", func() {
		scoreFires.Add(1)
		<-gate
	})
	defer restore()

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(demoSearch()); err != nil {
			t.Error(err)
			return
		}
		req := httptest.NewRequest(http.MethodPost, "/api/search", &buf)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		first <- rec
	}()
	waitSnapshot(t, s.adm, func(adm, _, _ int) bool { return adm == 1 && scoreFires.Load() == 1 })

	s.SetSearchTimeout(30 * time.Millisecond)
	rec := doJSON(t, s, http.MethodPost, "/api/search", demoSearch())
	s.SetSearchTimeout(0)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued-expiry status = %d, want 503 (body %s)", rec.Code, rec.Body.String())
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("503 Retry-After = %q, want a positive integer", rec.Header().Get("Retry-After"))
	}
	if fires := scoreFires.Load(); fires != 1 {
		t.Fatalf("scorer entered %d times: the expired waiter must be answered from the queue", fires)
	}
	close(gate)
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("slot holder status = %d, want 200", rec.Code)
	}
	if adm, q, w := s.adm.snapshot(); adm != 0 || q != 0 || w != 0 {
		t.Fatalf("gauges = (%d,%d,%d), want zeros", adm, q, w)
	}
}

// appendCSV posts CSV rows to /api/append and returns the recorder.
func appendCSV(t *testing.T, s *Server, name, csv string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/append?dataset="+name, strings.NewReader(csv))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestSearchDuringAppendPatch wedges an append mid-patch (after the index
// absorbed the rows, before the cached candidates were repaired) and
// proves a concurrent search still completes — appends never block
// searches — and that searches after the append reflect the new rows.
func TestSearchDuringAppendPatch(t *testing.T) {
	s := testServer(t)
	searchDemo(t, s, "u ; d", "demo") // warm the candidate cache

	gate := make(chan struct{})
	entered := make(chan struct{})
	restore := faultinject.Set("server.append.prepatch", func() {
		close(entered)
		<-gate
	})
	defer restore()

	var spike strings.Builder
	spike.WriteString("z,x,y\n")
	for i, y := range []int{0, 4, 8, 12, 16, 12, 8, 4, 0} {
		fmt.Fprintf(&spike, "spike,%d,%d\n", i, y)
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- appendCSV(t, s, "demo", spike.String()) }()
	<-entered

	// Mid-patch: the search must complete (serving pre- or post-append
	// candidates, both consistent states), never block on the appender.
	if resp := searchDemo(t, s, "u ; d", "demo"); len(resp.Results) == 0 {
		t.Fatal("search during append returned no results")
	}
	close(gate)
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("append status = %d: %s", rec.Code, rec.Body.String())
	}
	resp := searchDemo(t, s, "u ; d", "demo")
	found := false
	for _, r := range resp.Results {
		found = found || r.Z == "spike"
	}
	if !found {
		t.Fatalf("post-append results = %+v, want the appended spike series visible", resp.Results)
	}
}

// registerMany registers a dataset of the given number of 9-point series.
// From executor.IndexMinCorpus series up (indexedSeries) its cached
// candidate set carries a shape index and appends schedule background
// rebuilds.
func registerMany(t *testing.T, s *Server, name string, series int) {
	t.Helper()
	var zs []string
	var xs, ys []float64
	for i := 0; i < series; i++ {
		z := fmt.Sprintf("s%04d", i)
		for j := 0; j < 9; j++ {
			y := j
			if j > 4 {
				y = 8 - j
			}
			zs = append(zs, z)
			xs = append(xs, float64(j))
			ys = append(ys, float64(y*(1+i%5)))
		}
	}
	tbl, err := dataset.New(
		dataset.Column{Name: "z", Type: dataset.String, Strings: zs},
		dataset.Column{Name: "x", Type: dataset.Float, Floats: xs},
		dataset.Column{Name: "y", Type: dataset.Float, Floats: ys},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.Register(name, tbl)
}

// TestRebuildPausesUnderLoad: a background shape-index rebuild scheduled
// by an append parks while the server is saturated and proceeds once load
// drains — graceful degradation of background work, pinned through the
// rebuild hook points.
func TestRebuildPausesUnderLoad(t *testing.T) {
	s := testServer(t, WithSearchConcurrency(1), WithIndexRebuildThreshold(1))
	s.appendYieldMax = time.Millisecond // keep the append's own yield out of the way
	registerMany(t, s, "many", indexedSeries)
	searchDemo(t, s, "u ; d", "many") // build the cached entry + shape index
	requireIndexed(t, s, "many", true)

	started := make(chan struct{})
	built := make(chan struct{})
	restore1 := faultinject.Set("server.rebuild.start", func() { close(started) })
	defer restore1()
	restore2 := faultinject.Set("server.rebuild.build", func() { close(built) })
	defer restore2()

	hold, err := s.adm.admit(t.Context(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	release := func() { hold.release() }
	defer release()

	if rec := appendCSV(t, s, "many", "z,x,y\ns0000,9,7\n"); rec.Code != http.StatusOK {
		t.Fatalf("append status = %d: %s", rec.Code, rec.Body.String())
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("append did not schedule a rebuild")
	}
	select {
	case <-built:
		t.Fatal("rebuild ran while the server was saturated")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-built:
	case <-time.After(5 * time.Second):
		t.Fatal("rebuild did not resume after load drained")
	}
	s.rebuildWG.Wait()
	if resp := searchDemo(t, s, "u ; d", "many"); len(resp.Results) == 0 {
		t.Fatal("search after rebuild returned no results")
	}
}
