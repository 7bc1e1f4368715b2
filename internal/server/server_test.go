package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"shapesearch/internal/dataset"
)

func testServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s := New(opts...)
	// A tiny dataset: "peak" rises then falls, "rise" only rises.
	var zs []string
	var xs, ys []float64
	add := func(z string, vals ...float64) {
		for i, v := range vals {
			zs = append(zs, z)
			xs = append(xs, float64(i))
			ys = append(ys, v)
		}
	}
	add("peak", 0, 2, 4, 6, 8, 6, 4, 2, 0)
	add("rise", 0, 1, 2, 3, 4, 5, 6, 7, 8)
	tbl, err := dataset.New(
		dataset.Column{Name: "z", Type: dataset.String, Strings: zs},
		dataset.Column{Name: "x", Type: dataset.Float, Floats: xs},
		dataset.Column{Name: "y", Type: dataset.Float, Floats: ys},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.Register("demo", tbl)
	return s
}

func doJSON(t testing.TB, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealth(t *testing.T) {
	rec := doJSON(t, testServer(t), http.MethodGet, "/api/health", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("body = %s", rec.Body.String())
	}
}

func TestListDatasets(t *testing.T) {
	rec := doJSON(t, testServer(t), http.MethodGet, "/api/datasets", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var infos []datasetInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "demo" || infos[0].Rows != 18 {
		t.Fatalf("infos = %+v", infos)
	}
}

func TestUploadDataset(t *testing.T) {
	s := testServer(t)
	csv := "city,month,temp\nnyc,1,30\nnyc,2,40\nsf,1,50\nsf,2,55\n"
	req := httptest.NewRequest(http.MethodPost, "/api/datasets/weather", strings.NewReader(csv))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	rec = doJSON(t, s, http.MethodGet, "/api/datasets", nil)
	if !strings.Contains(rec.Body.String(), "weather") {
		t.Fatalf("datasets = %s", rec.Body.String())
	}
	// Bad upload.
	req = httptest.NewRequest(http.MethodPost, "/api/datasets/bad", strings.NewReader(""))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty CSV upload status = %d", rec.Code)
	}
}

func TestParseRegex(t *testing.T) {
	rec := doJSON(t, testServer(t), http.MethodPost, "/api/parse",
		parseRequest{Kind: "regex", Query: "u ; d"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp parseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Canonical != "[p=up][p=down]" || !resp.Fuzzy {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestParseNLWithEntities(t *testing.T) {
	rec := doJSON(t, testServer(t), http.MethodPost, "/api/parse",
		parseRequest{Kind: "nl", Query: "rising then falling"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp parseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Canonical != "[p=up][p=down]" {
		t.Fatalf("canonical = %q", resp.Canonical)
	}
	if len(resp.Entities) != 3 {
		t.Fatalf("entities = %+v", resp.Entities)
	}
}

func TestParseSketch(t *testing.T) {
	body := map[string]any{
		"kind": "sketch",
		"sketch": []map[string]float64{
			{"X": 0, "Y": 0}, {"X": 1, "Y": 2}, {"X": 2, "Y": 4},
			{"X": 3, "Y": 2}, {"X": 4, "Y": 0},
		},
	}
	rec := doJSON(t, testServer(t), http.MethodPost, "/api/parse", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp parseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Canonical != "[p=up][p=down]" {
		t.Fatalf("canonical = %q", resp.Canonical)
	}
}

func TestParseErrors(t *testing.T) {
	s := testServer(t)
	rec := doJSON(t, s, http.MethodPost, "/api/parse", parseRequest{Kind: "regex", Query: "["})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", rec.Code)
	}
	rec = doJSON(t, s, http.MethodPost, "/api/parse", parseRequest{Kind: "martian", Query: "x"})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/parse", strings.NewReader("{bad json"))
	recBad := httptest.NewRecorder()
	s.ServeHTTP(recBad, req)
	if recBad.Code != http.StatusBadRequest {
		t.Fatalf("bad json status = %d", recBad.Code)
	}
}

func TestSearchEndToEnd(t *testing.T) {
	s := testServer(t)
	req := searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: "u ; d"},
		Dataset:      "demo", Z: "z", X: "x", Y: "y", K: 2,
	}
	rec := doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if resp.Results[0].Z != "peak" {
		t.Fatalf("top = %s", resp.Results[0].Z)
	}
	if len(resp.Results[0].X) == 0 || len(resp.Results[0].BreakXs) == 0 {
		t.Fatal("series data missing")
	}
}

func TestSearchNLQuery(t *testing.T) {
	s := testServer(t)
	req := searchRequest{
		parseRequest: parseRequest{Kind: "nl", Query: "rising then falling"},
		Dataset:      "demo", Z: "z", X: "x", Y: "y",
	}
	rec := doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Z != "peak" {
		t.Fatalf("top = %s", resp.Results[0].Z)
	}
}

func TestSearchErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name string
		req  searchRequest
		code int
	}{
		{
			"missing dataset",
			searchRequest{parseRequest: parseRequest{Query: "u"}, Dataset: "ghost", Z: "z", X: "x", Y: "y"},
			http.StatusNotFound,
		},
		{
			"bad query",
			searchRequest{parseRequest: parseRequest{Query: "["}, Dataset: "demo", Z: "z", X: "x", Y: "y"},
			http.StatusUnprocessableEntity,
		},
		{
			"bad column",
			searchRequest{parseRequest: parseRequest{Query: "u"}, Dataset: "demo", Z: "ghost", X: "x", Y: "y"},
			http.StatusBadRequest,
		},
		{
			"bad algorithm",
			searchRequest{parseRequest: parseRequest{Query: "u"}, Dataset: "demo", Z: "z", X: "x", Y: "y", Algorithm: "quantum"},
			http.StatusBadRequest,
		},
		{
			"bad agg",
			searchRequest{parseRequest: parseRequest{Query: "u"}, Dataset: "demo", Z: "z", X: "x", Y: "y", Agg: "median"},
			http.StatusBadRequest,
		},
	}
	for _, c := range cases {
		rec := doJSON(t, s, http.MethodPost, "/api/search", c.req)
		if rec.Code != c.code {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body.String())
		}
	}
}

// TestSingleSearchIsBatchOfOne: a single-query request runs as a batch of
// one yet keeps its own reply shape — top-level parse and results, equal
// to the batch entry's — and error texts without the batch's query index.
func TestSingleSearchIsBatchOfOne(t *testing.T) {
	s := testServer(t)
	search := func(pr parseRequest, batch bool) *httptest.ResponseRecorder {
		req := searchRequest{Dataset: "demo", Z: "z", X: "x", Y: "y", K: 2}
		if batch {
			req.Queries = []parseRequest{pr}
		} else {
			req.parseRequest = pr
		}
		return doJSON(t, s, http.MethodPost, "/api/search", req)
	}
	marshal := func(v any) string {
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	pr := parseRequest{Kind: "regex", Query: "u ; d"}
	var single, batch searchResponse
	for _, c := range []struct {
		batch bool
		into  *searchResponse
	}{{false, &single}, {true, &batch}} {
		rec := search(pr, c.batch)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch=%v: status = %d: %s", c.batch, rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), c.into); err != nil {
			t.Fatal(err)
		}
	}
	if len(single.Queries) != 0 || len(single.Results) == 0 {
		t.Fatalf("single reply has %d batch entries and %d results", len(single.Queries), len(single.Results))
	}
	if got, want := marshal(batchQueryResult{Parse: single.Parse, Results: single.Results}), marshal(batch.Queries[0]); got != want {
		t.Fatalf("single reply %s, batch entry %s", got, want)
	}
	for _, c := range []struct {
		query string
		code  int
	}{{"[", http.StatusUnprocessableEntity}, {"[p=ghost]", http.StatusBadRequest}} {
		pr := parseRequest{Kind: "regex", Query: c.query}
		var one, many map[string]string
		for _, r := range []struct {
			batch bool
			into  *map[string]string
		}{{false, &one}, {true, &many}} {
			rec := search(pr, r.batch)
			if rec.Code != c.code {
				t.Fatalf("%q batch=%v: status = %d, want %d", c.query, r.batch, rec.Code, c.code)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), r.into); err != nil {
				t.Fatal(err)
			}
		}
		if strings.HasPrefix(one["error"], "query ") || "query 0: "+one["error"] != many["error"] {
			t.Fatalf("%q: single error %q, batch error %q", c.query, one["error"], many["error"])
		}
	}
}

// TestJSONBodyCap: /api/search and /api/parse refuse a body larger than
// maxJSONBody with 413 instead of buffering it.
func TestJSONBodyCap(t *testing.T) {
	s := testServer(t)
	body := `{"kind":"regex","query":"` + strings.Repeat("u", maxJSONBody) + `"}`
	for _, path := range []string{"/api/search", "/api/parse"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413 (%.200s)", path, rec.Code, rec.Body.String())
		}
	}
}

func TestSearchWithFilterAndAlgorithms(t *testing.T) {
	s := testServer(t)
	for _, alg := range []string{"auto", "dp", "segmenttree", "greedy", "dtw", "euclidean"} {
		req := searchRequest{
			parseRequest: parseRequest{Kind: "regex", Query: "u ; d"},
			Dataset:      "demo", Z: "z", X: "x", Y: "y",
			Algorithm: alg,
			Filters:   []filterSpec{{Col: "y", Op: "<=", Num: 100}},
		}
		rec := doJSON(t, s, http.MethodPost, "/api/search", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", alg, rec.Code, rec.Body.String())
		}
	}
}

// TestDownsample pins downsample's contract: short series pass through,
// and over every length in (n, 5000] for a spread of caps the result has
// exactly n points, keeps the first and last points, and takes strictly
// increasing source indices.
func TestDownsample(t *testing.T) {
	x := make([]float64, 5000)
	for i := range x {
		x[i] = float64(i)
	}
	if sx, sy := downsample(x[:50], x[:50], 100); len(sx) != 50 || len(sy) != 50 {
		t.Fatal("short series should pass through")
	}
	for _, n := range []int{2, 3, 50, 100, 200} {
		for size := n + 1; size <= len(x); size++ {
			dx, dy := downsample(x[:size], x[:size], n)
			if len(dx) != n || len(dy) != n {
				t.Fatalf("len %d, n %d: got %d points", size, n, len(dx))
			}
			if dx[0] != 0 || dx[n-1] != float64(size-1) {
				t.Fatalf("len %d, n %d: endpoints %v, %v; want 0, %d", size, n, dx[0], dx[n-1], size-1)
			}
			for i := 1; i < n; i++ {
				if dx[i] <= dx[i-1] {
					t.Fatalf("len %d, n %d: index %v follows %v", size, n, dx[i], dx[i-1])
				}
			}
		}
	}
	if dx, _ := downsample([]float64{4, 5, 6}, []float64{1, 2, 3}, 1); len(dx) != 1 || dx[0] != 4 {
		t.Fatalf("n=1: got %v, want [4]", dx)
	}
}
