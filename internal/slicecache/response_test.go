package slicecache_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"jumpslice/internal/core"
	"jumpslice/internal/obs"
	"jumpslice/internal/slicecache"
)

// respCost is what PutResponse charges for r under rk.
func respCost(rk slicecache.ResponseKey, r *slicecache.Response) int64 {
	return int64(len(r.Body)+len(rk.Var)+len(rk.Algo)) + slicecache.ResponseOverhead
}

// checkLedger asserts the byte ledger is exact: every shard's bytes
// equal its entries' summed costs, memoized responses included, and
// the resident gauges mirror Stats.
func checkLedger(t *testing.T, c *slicecache.Cache, reg *obs.Registry) slicecache.Stats {
	t.Helper()
	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if reg != nil {
		if got := reg.Gauge("cache.resident_bytes").Value(); got != st.Bytes {
			t.Errorf("resident_bytes gauge %d != stats bytes %d", got, st.Bytes)
		}
		if got := reg.Gauge("cache.entries").Value(); got != int64(st.Entries) {
			t.Errorf("entries gauge %d != stats entries %d", got, st.Entries)
		}
	}
	return st
}

// TestResponseMemo asserts a stored response is charged to its entry,
// returned by the next GetResponse for the same key and no other, and
// counted as a response hit on top of the analysis hit.
func TestResponseMemo(t *testing.T) {
	reg := obs.NewRegistry()
	c := slicecache.New(slicecache.Options{Recorder: reg})
	src, build := buildFig5(t)
	ctx := context.Background()
	rk := slicecache.ResponseKey{Var: "positives", Line: 14, Algo: "agrawal"}

	a, resp, out, err := c.GetResponse(ctx, src, &rk, build)
	if err != nil || a == nil || resp != nil || out != slicecache.Miss {
		t.Fatalf("first GetResponse: a=%v resp=%v outcome=%v err=%v", a, resp, out, err)
	}
	before := checkLedger(t, c, reg).Bytes
	memo := &slicecache.Response{Body: []byte(strings.Repeat("x", 1000)), SliceLines: 9, Stmts: 14}
	c.PutResponse(src, rk, memo)
	want := before + respCost(rk, memo)
	if got := checkLedger(t, c, reg).Bytes; got != want {
		t.Fatalf("Bytes after PutResponse = %d, want %d", got, want)
	}
	// A second store under the same key keeps the first and charges
	// nothing.
	c.PutResponse(src, rk, &slicecache.Response{Body: []byte("other")})
	if got := checkLedger(t, c, reg).Bytes; got != want {
		t.Fatalf("Bytes after a duplicate PutResponse = %d, want %d", got, want)
	}

	a2, got, out, err := c.GetResponse(ctx, src, &rk, build)
	if err != nil || got != memo || out != slicecache.Hit || a2 != a {
		t.Fatalf("repeat GetResponse: resp=%v outcome=%v err=%v same analysis=%v", got, out, err, a2 == a)
	}
	other := rk
	other.Line = 15
	if _, got, out, _ := c.GetResponse(ctx, src, &other, build); got != nil || out != slicecache.Hit {
		t.Fatalf("other criterion: resp=%v outcome=%v, want no response on a hit", got, out)
	}
	if _, out, _ := c.Get(ctx, src, build); out != slicecache.Hit {
		t.Fatalf("Get outcome = %v, want hit", out)
	}
	st := checkLedger(t, c, reg)
	if st.Hits != 3 || st.ResponseHits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 hits, 1 response hit, 1 miss", st)
	}
	if got := reg.Counter("cache.response_hits").Value(); got != 1 {
		t.Fatalf("cache.response_hits = %d, want 1", got)
	}
}

// TestResponseMemoEviction asserts evicting an analysis refunds its
// responses with it, and a response that pushes its shard over budget
// evicts from the LRU tail like an insert does.
func TestResponseMemoEviction(t *testing.T) {
	src, build := buildFig5(t)
	ctx := context.Background()
	probe := slicecache.New(slicecache.Options{})
	a, _, err := probe.Get(ctx, src, build)
	if err != nil {
		t.Fatal(err)
	}
	// One shard, budget for two entries and a small response.
	per := a.Footprint() + int64(len(src)) + 256
	reg := obs.NewRegistry()
	c := slicecache.New(slicecache.Options{MaxBytes: 2*per + per/2, Shards: 1, Recorder: reg})
	mk := func(tag string) string { return src + "\n# " + tag } // distinct keys, same parse
	rk := slicecache.ResponseKey{Var: "positives", Line: 14, Algo: "agrawal"}
	memo := &slicecache.Response{Body: []byte(strings.Repeat("y", 200))}

	if _, _, err := c.Get(ctx, mk("a"), build); err != nil {
		t.Fatal(err)
	}
	c.PutResponse(mk("a"), rk, memo)
	if _, _, err := c.Get(ctx, mk("b"), build); err != nil {
		t.Fatal(err)
	}
	before := checkLedger(t, c, reg).Bytes
	// "a" is the LRU tail; inserting "c" evicts it with its response.
	// "a" and "c" cost the same, so only the response's bytes leave.
	if _, _, err := c.Get(ctx, mk("c"), build); err != nil {
		t.Fatal(err)
	}
	st := checkLedger(t, c, reg)
	if c.Contains(mk("a")) || st.Evictions != 1 {
		t.Fatalf("a resident=%v evictions=%d, want a evicted once", c.Contains(mk("a")), st.Evictions)
	}
	if want := before - respCost(rk, memo); st.Bytes != want {
		t.Fatalf("Bytes after evicting a = %d, want %d", st.Bytes, want)
	}
	if _, got, out, _ := c.GetResponse(ctx, mk("a"), &rk, build); got != nil || out != slicecache.Miss {
		t.Fatalf("after eviction: resp=%v outcome=%v, want a miss with no response", got, out)
	}

	// The miss above reinserted "a" (evicting "b"), so "c" is the LRU
	// tail. A response larger than the whole budget on "c" evicts it,
	// response and all, and leaves "a": the two cost the same.
	both := checkLedger(t, c, reg).Bytes
	c.PutResponse(mk("c"), rk, &slicecache.Response{Body: make([]byte, 3*per)})
	st = checkLedger(t, c, reg)
	if c.Contains(mk("c")) || !c.Contains(mk("a")) || st.Bytes*2 != both {
		t.Fatalf("after an oversized response: a=%v c=%v Bytes=%d (of %d), want a alone",
			c.Contains(mk("a")), c.Contains(mk("c")), st.Bytes, both)
	}
}

// TestResponseStoreAfterEvictOrReplace asserts a store that lands
// after its analysis was replaced by PutKey, deleted, or turned out
// to be an error keeps the ledger exact: a replaced entry's responses
// leave with it, a store onto the replacement is charged once, and a
// store with no positive entry resident is dropped.
func TestResponseStoreAfterEvictOrReplace(t *testing.T) {
	reg := obs.NewRegistry()
	c := slicecache.New(slicecache.Options{Recorder: reg})
	src, build := buildFig5(t)
	ctx := context.Background()
	rk := slicecache.ResponseKey{Var: "positives", Line: 14, Algo: "agrawal"}
	memo := &slicecache.Response{Body: []byte("body")}

	if _, _, err := c.Get(ctx, src, build); err != nil {
		t.Fatal(err)
	}
	c.PutResponse(src, rk, memo)
	a2, err := build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c.PutKey(slicecache.KeyOf(src), src, a2)
	if _, got, _, _ := c.GetResponse(ctx, src, &rk, build); got != nil {
		t.Fatal("a response outlived the entry PutKey replaced")
	}
	before := checkLedger(t, c, reg).Bytes
	c.PutResponse(src, rk, memo)
	if got, want := checkLedger(t, c, reg).Bytes, before+respCost(rk, memo); got != want {
		t.Fatalf("Bytes after storing onto the replacement = %d, want %d", got, want)
	}

	if !c.DeleteKey(slicecache.KeyOf(src)) {
		t.Fatal("DeleteKey found no entry")
	}
	c.PutResponse(src, rk, memo)
	if st := checkLedger(t, c, reg); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("a store after deletion left %+v, want an empty cache", st)
	}

	bad := func(context.Context) (*core.Analysis, error) { return nil, errors.New("bad program") }
	c.Get(ctx, "junk", bad)
	before = checkLedger(t, c, reg).Bytes
	c.PutResponse("junk", rk, memo)
	if got := checkLedger(t, c, reg).Bytes; got != before {
		t.Fatalf("a store onto a negative entry moved Bytes %d -> %d", before, got)
	}
}

// TestStressResponses races GetResponse, PutResponse, PutKey
// replacement and budget evictions over a small key space under
// -race. Every response returned must be the one stored for that
// program and criterion, and the ledger must be exact afterwards.
func TestStressResponses(t *testing.T) {
	src, build := buildFig5(t)
	ctx := context.Background()
	probe := slicecache.New(slicecache.Options{})
	a, _, err := probe.Get(ctx, src, build)
	if err != nil {
		t.Fatal(err)
	}
	const (
		keys    = 12
		lines   = 4
		workers = 8
		rounds  = 200
	)
	per := a.Footprint() + int64(len(src)) + 256
	reg := obs.NewRegistry()
	// One shard holding about a third of the programs: evictions are
	// constant and race the stores.
	c := slicecache.New(slicecache.Options{MaxBytes: per * keys / 3, Shards: 1, Recorder: reg})
	srcOf := func(i int) string { return fmt.Sprintf("%s\n# %02d", src, i) }
	bodyOf := func(i, line int) []byte { return []byte(strings.Repeat(fmt.Sprintf("%d/%d;", i, line), 50)) }

	var wg sync.WaitGroup
	var lookups, found atomic.Int64
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				i, line := rng.Intn(keys), 1+rng.Intn(lines)
				rk := slicecache.ResponseKey{Var: "v", Line: line, Algo: "agrawal"}
				if w == 0 && r%10 == 0 {
					// Replace the program's entry, as a session's
					// PutKey replaces one under its own key.
					a, err := build(ctx)
					if err != nil {
						errc <- err
						return
					}
					c.PutKey(slicecache.KeyOf(srcOf(i)), srcOf(i), a)
					continue
				}
				_, resp, _, err := c.GetResponse(ctx, srcOf(i), &rk, build)
				lookups.Add(1)
				if err != nil {
					errc <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if resp == nil {
					c.PutResponse(srcOf(i), rk, &slicecache.Response{Body: bodyOf(i, line), SliceLines: line})
					continue
				}
				found.Add(1)
				if string(resp.Body) != string(bodyOf(i, line)) || resp.SliceLines != line {
					errc <- fmt.Errorf("worker %d: program %d line %d got the response stored for another key", w, i, line)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := checkLedger(t, c, reg)
	if got := st.Hits + st.Misses + st.Coalesced; got != lookups.Load() {
		t.Errorf("hits+misses+coalesced = %d, want %d lookups", got, lookups.Load())
	}
	if st.ResponseHits != found.Load() || found.Load() == 0 {
		t.Errorf("ResponseHits = %d, found %d responses; want equal and nonzero", st.ResponseHits, found.Load())
	}
	if st.Evictions == 0 {
		t.Error("stress budget produced no evictions; tighten MaxBytes")
	}
}

// TestPutResponseCopiesKey asserts a stored key owns its strings. A
// caller's criterion is typically a view of a much larger string, such
// as a request line; the entry is charged only for the key's lengths,
// so holding the caller's string would pin memory the budget never
// sees.
func TestPutResponseCopiesKey(t *testing.T) {
	c := slicecache.New(slicecache.Options{})
	src, build := buildFig5(t)
	if _, _, err := c.Get(context.Background(), src, build); err != nil {
		t.Fatal(err)
	}
	const pad = 1 << 20
	line := strings.Repeat("p", pad) + "positives" + "agrawal"
	rk := slicecache.ResponseKey{Var: line[pad : pad+9], Line: 14, Algo: line[pad+9:]}
	c.PutResponse(src, rk, &slicecache.Response{Body: []byte("{}")})
	ks := c.ResponseKeys(src)
	if len(ks) != 1 || ks[0] != rk {
		t.Fatalf("stored keys %v, want [%v]", ks, rk)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(line)))
	hi := lo + uintptr(len(line))
	for _, s := range []string{ks[0].Var, ks[0].Algo} {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < hi {
			t.Errorf("stored key string %q aliases the caller's %d-byte string", s, len(line))
		}
	}
}
