package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"shapesearch/internal/dataset"
	"shapesearch/internal/executor"
)

// defaultCacheCapacity bounds the number of cached candidate sets. Each
// entry holds the grouped Viz slices for one (dataset version, effective
// extract spec, group config) combination; a handful of visual-parameter
// combinations per dataset is typical, so a small bound suffices.
const defaultCacheCapacity = 64

// cacheKey scopes a plan's candidate key by dataset identity and version;
// bumping the version on upload makes every stale entry unreachable.
func cacheKey(dataset string, version uint64, planKey string) string {
	return fmt.Sprintf("%s\x00%d\x00%s", dataset, version, planKey)
}

// cacheKeyPrefix is the shared prefix of every cacheKey for one dataset
// registration; the append patcher uses it to skip entries from an older
// registration that a concurrent Register has already made unreachable.
func cacheKeyPrefix(dataset string, version uint64) string {
	return fmt.Sprintf("%s\x00%d\x00", dataset, version)
}

// cachedCandidates is one candidate-cache entry's payload: the grouped
// candidate visualizations plus — for corpus-scale entries — the prebuilt
// shape index over their bound summaries, so repeated queries pay the index
// build once alongside EXTRACT + GROUP, not per search. index is nil below
// executor.IndexMinCorpus vizs: those entries run the flat bound-first
// scan.
//
// espec, plan and patchable are the append path's repair metadata: the
// effective extract spec the vizs were built from, one plan whose GROUP
// configuration produced them (any plan sharing the candidate key works),
// and whether that configuration is per-series local (Plan.PinFree) so a
// touched group can be regrouped alone and spliced in place. Searches
// ignore them.
type cachedCandidates struct {
	vizs      []*executor.Viz
	index     *executor.VizIndex
	espec     dataset.ExtractSpec
	plan      *executor.Plan
	patchable bool
	// zpos maps each viz's z value to its position in vizs, so a patch
	// locates a delta's touched groups in O(|delta|) instead of scanning
	// the corpus. Only append patchers (serialized on Server.appendMu)
	// touch it after construction; searches never read it.
	zpos map[string]int
}

// buildZPos indexes a viz slice by z value.
func buildZPos(vizs []*executor.Viz) map[string]int {
	zpos := make(map[string]int, len(vizs))
	for i, v := range vizs {
		if v != nil {
			zpos[v.Series.Z] = i
		}
	}
	return zpos
}

// candidateCache memoizes the EXTRACT + GROUP stages of the pipeline: the
// grouped candidate visualizations for one dataset version and one set of
// visual parameters. Entries are immutable once stored (executor.Viz is
// read-only during scoring), so concurrent readers share them safely.
// Eviction is LRU — hits move an entry to the front of the recency list,
// and a store past capacity evicts from the back — so hot specs survive
// bursts of one-off queries.
type candidateCache struct {
	mu       sync.Mutex
	enabled  bool
	capacity int
	entries  map[string]*list.Element // value: *cacheEntry
	// order is the recency list: front = most recently used.
	order *list.List
	// flights coalesces concurrent misses on one key: a single leader
	// builds the candidate set while the rest wait and share the result.
	flights map[string]*flight
	// hits and misses instrument the cache for tests and expvar-style
	// debugging. Joining an in-progress flight counts as a hit (the work
	// is shared, not repeated).
	hits, misses uint64
}

type cacheEntry struct {
	key     string
	dataset string
	cands   cachedCandidates
	// gen counts in-place rewrites of this entry (append patches, index
	// installs). Asynchronous writers snapshot it and give up when it moved
	// — optimistic concurrency instead of holding mu across regrouping.
	gen uint64
}

type flight struct {
	done  chan struct{}
	cands cachedCandidates
	err   error
}

func newCandidateCache(capacity int) *candidateCache {
	return &candidateCache{
		enabled:  true,
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		flights:  make(map[string]*flight),
	}
}

func (c *candidateCache) disable() {
	c.mu.Lock()
	c.enabled = false
	c.entries = make(map[string]*list.Element)
	c.order = list.New()
	c.mu.Unlock()
}

// fetch returns the candidates for key, building them on a miss.
// Concurrent misses on the same key coalesce (singleflight): one leader
// runs build while the rest wait on its result, so a cold cache under a
// burst of identical queries extracts and groups once, not N times.
// hit reports whether this call reused existing or in-flight work (false
// only for the leader of a fresh build). A waiter whose ctx expires stops
// waiting and returns ctx.Err(); the leader's build is never canceled —
// its result still lands in the cache for live requests.
//
// dv is the dataset's delta version as the caller observed it. It scopes
// the singleflight — requests admitted across an append must not share a
// build, since the earlier leader's extraction may predate the appended
// rows — while the cache key stays dv-free so stored entries survive
// appends and are patched in place.
//
// validate is consulted under mu at store time and the result is kept only
// if it returns true. The caller passes a closure re-checking both the
// dataset version and the delta version, which closes the
// register/append-vs-store race with no window at all: stores, append
// patches and invalidation all serialize on mu, so a build that raced a
// data change is discarded atomically rather than reaped after the fact.
func (c *candidateCache) fetch(ctx context.Context, dataset, key string, dv uint64, validate func() bool, build func() (cachedCandidates, error)) (cands cachedCandidates, hit bool, err error) {
	fkey := fmt.Sprintf("%s\x00dv=%d", key, dv)
	c.mu.Lock()
	if !c.enabled {
		c.mu.Unlock()
		cands, err = build()
		return cands, false, err
	}
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		cands := el.Value.(*cacheEntry).cands
		c.mu.Unlock()
		return cands, true, nil
	}
	if f, ok := c.flights[fkey]; ok {
		c.hits++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.cands, true, f.err
		case <-ctx.Done():
			return cachedCandidates{}, true, ctx.Err()
		}
	}
	c.misses++
	f := &flight{done: make(chan struct{}), err: errBuildAbandoned}
	c.flights[fkey] = f
	// The bookkeeping runs in a defer so a panicking build (which net/http
	// recovers per request) still unregisters the flight and releases its
	// waiters — with errBuildAbandoned, since f.err was never overwritten —
	// instead of wedging the key forever.
	defer func() {
		c.mu.Lock()
		delete(c.flights, fkey)
		if f.err == nil && c.enabled && (validate == nil || validate()) {
			if el, ok := c.entries[key]; ok {
				// A concurrent store beat us (e.g. cache re-enabled
				// mid-flight); refresh in place.
				e := el.Value.(*cacheEntry)
				e.cands = f.cands
				e.gen++
				c.order.MoveToFront(el)
			} else {
				c.entries[key] = c.order.PushFront(&cacheEntry{key: key, dataset: dataset, cands: f.cands})
				for len(c.entries) > c.capacity {
					c.evictOldestLocked()
				}
			}
		}
		c.mu.Unlock()
		close(f.done)
	}()
	c.mu.Unlock()

	cands, err = build()
	f.cands, f.err = cands, err
	return cands, false, err
}

// errBuildAbandoned is what flight waiters observe when the leader's build
// panicked instead of returning.
var errBuildAbandoned = errors.New("server: candidate build did not complete")

// evictOldestLocked removes the least recently used entry. Caller holds mu.
func (c *candidateCache) evictOldestLocked() {
	back := c.order.Back()
	if back == nil {
		return
	}
	c.order.Remove(back)
	delete(c.entries, back.Value.(*cacheEntry).key)
}

// remove drops one entry (used to reap a store that raced an upload).
func (c *candidateCache) remove(key string) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// invalidateDataset drops every entry built from the named dataset. The
// version bump in the key already makes stale entries unreachable; dropping
// them too returns the memory immediately.
func (c *candidateCache) invalidateDataset(dataset string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		if e := el.Value.(*cacheEntry); e.dataset == dataset {
			c.order.Remove(el)
			delete(c.entries, e.key)
		}
	}
}

// stats reports (hits, misses) so tests can assert cache behavior.
func (c *candidateCache) stats() (uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// entrySnapshot is one cached entry as an append patcher observed it: the
// payload plus the generation to hand back to replace.
type entrySnapshot struct {
	key   string
	gen   uint64
	cands cachedCandidates
}

// snapshotDataset captures the entries built from one dataset whose keys
// carry the given prefix (dataset name + version — entries from an older
// registration must not be patched with the new index's data). The append
// patcher works off the snapshot outside mu and writes back through
// replace, so regrouping cost is never paid under the cache lock.
func (c *candidateCache) snapshotDataset(dataset, keyPrefix string) []entrySnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []entrySnapshot
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if e.dataset == dataset && strings.HasPrefix(e.key, keyPrefix) {
			out = append(out, entrySnapshot{key: e.key, gen: e.gen, cands: e.cands})
		}
	}
	return out
}

// snapshotOne re-reads a single entry by key, for a patcher whose
// generation-guarded write-back lost a race and needs fresh state to retry.
func (c *candidateCache) snapshotOne(key string) (entrySnapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return entrySnapshot{}, false
	}
	e := el.Value.(*cacheEntry)
	return entrySnapshot{key: e.key, gen: e.gen, cands: e.cands}, true
}

// replace installs a rewritten payload for key iff the entry still exists
// and its generation is still gen (optimistic concurrency: a concurrent
// fresh store already reflects the post-append data, so losing the race
// means there is nothing left to patch). It reports whether the write
// landed and, if so, the entry's new generation.
func (c *candidateCache) replace(key string, gen uint64, cands cachedCandidates) (bool, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false, 0
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		return false, 0
	}
	e.cands = cands
	e.gen++
	return true, e.gen
}
