package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"shapesearch/internal/server"
)

// hit is one ranked result as the reply carries it. Scores round-trip
// through JSON exactly, so they compare bit for bit.
type hit struct {
	Z     string  `json:"z"`
	Score float64 `json:"score"`
}

// reply decodes the parts of a /api/search reply the benchmark checks.
type reply struct {
	Results []hit `json:"results"`
	Queries []struct {
		Results []hit `json:"results"`
	} `json:"queries"`
	Debug struct {
		PlanCache struct {
			Hit bool `json:"hit"`
		} `json:"plan_cache"`
	} `json:"debug"`
}

// searchRec is one measured search.
type searchRec struct {
	req     request
	lat     time.Duration
	status  int
	bytes   int
	planHit bool
	// body is the raw reply, kept until decode.
	body []byte
	// results holds one top-k per query of the request, in order.
	results [][]hit
	err     string
}

// appendRec is one open-loop append.
type appendRec struct {
	batch int
	due   time.Time
	late  time.Duration // issue time − due time
	lat   time.Duration // completion time − due time
	// took is the AppendRows call alone, without the schedule delay.
	took time.Duration
	err  error
}

// search sends r to srv and decodes the reply at once. It is for requests
// outside a measured window.
func search(srv *server.Server, r request) searchRec {
	rec := send(srv, r)
	rec.decode()
	return rec
}

// send sends r to srv in-process, through Server.ServeHTTP with no
// sockets, and keeps the raw reply. The latency covers ServeHTTP from the
// send to the last byte of the reply. Encoding the body beforehand is the
// client's own work; decoding the reply is left to decode, after the
// window closes.
func send(srv *server.Server, r request) searchRec {
	rec := searchRec{req: r}
	body, err := json.Marshal(r)
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	hr, err := http.NewRequest(http.MethodPost, "/api/search", bytes.NewReader(body))
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	w := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(w, hr)
	rec.lat = time.Since(start)
	rec.status, rec.bytes = w.Code, w.Body.Len()
	if rec.status != http.StatusOK {
		rec.err = fmt.Sprintf("status %d: %s", rec.status, bytes.TrimSpace(w.Body.Bytes()))
		return rec
	}
	rec.body = w.Body.Bytes()
	return rec
}

// decode parses the kept reply into the record's results and drops it.
func (rec *searchRec) decode() {
	body := rec.body
	rec.body = nil
	if rec.err != "" {
		return
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		rec.err = "decoding reply: " + err.Error()
		return
	}
	rec.planHit = rep.Debug.PlanCache.Hit
	if len(rec.req.Queries) > 0 {
		for _, q := range rep.Queries {
			rec.results = append(rec.results, q.Results)
		}
	} else {
		rec.results = [][]hit{rep.Results}
	}
	if len(rec.results) != len(rec.req.queries()) {
		rec.err = fmt.Sprintf("reply has %d result lists for %d queries", len(rec.results), len(rec.req.queries()))
	}
}

// loadResult is what one measured window produced.
type loadResult struct {
	start, end time.Time
	// searches holds each client's searches in the order it sent them.
	searches [][]searchRec
	appends  []appendRec
	rt       runtimeDelta
}

// allSearches returns every client's searches, client by client.
func (lr *loadResult) allSearches() []searchRec {
	var all []searchRec
	for _, recs := range lr.searches {
		all = append(all, recs...)
	}
	return all
}

// clientSeed derives client c's request stream from the workload seed.
func clientSeed(seed int64, c int) int64 { return seed*7919 + int64(c) + 1 }

// drive runs one measured window against srv: wl.clients closed-loop
// clients, each sending its next search only after the previous reply,
// and, when the workload appends, an open-loop feed that issues batch i at
// start + i/rate whether or not earlier appends have finished. Searches
// start only before the window closes; the window ends when the last one
// returns and every issued append has completed. The replies are decoded
// after the window closes, so the runtime counters leave that work out.
func drive(srv *server.Server, wl workload, in *inputs, seed int64, window time.Duration) *loadResult {
	res := &loadResult{searches: make([][]searchRec, wl.clients)}
	before := readRuntime()
	res.start = time.Now()
	deadline := res.start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < wl.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := in.requests(rand.New(rand.NewSource(clientSeed(seed, c))))
			for time.Now().Before(deadline) {
				res.searches[c] = append(res.searches[c], send(srv, next()))
			}
		}(c)
	}
	if wl.appendRate > 0 {
		res.appends = feed(res.start, deadline, wl.appendRate, len(in.batches), func(i int) error {
			_, _, err := srv.AppendRows(in.dataset, in.batches[i])
			return err
		})
	}
	wg.Wait()
	res.end = time.Now()
	res.rt = readRuntime().sub(before)
	for _, recs := range res.searches {
		for i := range recs {
			recs[i].decode()
		}
	}
	return res
}

// feed is the open-loop generator: batch i is due at start + i/rate and is
// issued on its own goroutine at its due time, so a slow append delays no
// later issue. Only batches due before the deadline are issued. It returns
// once every issued append has completed.
func feed(start, deadline time.Time, rate float64, n int, apply func(i int) error) []appendRec {
	var recs []appendRec
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(deadline) {
			break
		}
		recs = append(recs, appendRec{batch: i, due: due})
	}
	var wg sync.WaitGroup
	for i := range recs {
		time.Sleep(time.Until(recs[i].due))
		wg.Add(1)
		go func(r *appendRec) {
			defer wg.Done()
			issued := time.Now()
			r.late = issued.Sub(r.due)
			r.err = apply(r.batch)
			done := time.Now()
			r.took, r.lat = done.Sub(issued), done.Sub(r.due)
		}(&recs[i])
	}
	wg.Wait()
	return recs
}
