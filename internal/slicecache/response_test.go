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

	"jumpslice/internal/core"
	"jumpslice/internal/obs"
	"jumpslice/internal/slicecache"
	"jumpslice/internal/slicecache/disk"
)

// recCost is what a resident record is charged.
func recCost(r *slicecache.Record) int64 {
	return int64(len(r.Body)) + slicecache.EntryOverhead
}

// recordKey names a record of the fig5 program.
func recordKey(src string, line int) slicecache.ResultKey {
	k := slicecache.KeyOf(src)
	return slicecache.ResultKeyOf(string(k[:]), "positives", fmt.Sprint(line), "agrawal", "false")
}

// acceptAll is a GetRecord check that takes any bytes as a record.
func acceptAll(b []byte) (*slicecache.Record, error) { return &slicecache.Record{Body: b}, nil }

// checkLedger asserts the byte ledger is exact: every shard's bytes
// equal its entries' summed costs, analyses and records alike, and the
// resident gauges mirror Stats.
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

// TestResponseMemo asserts a record shares the ledger with the
// analyses: it is charged its body plus the entry overhead, returned
// by the next GetRecord for its key and no other, and counted as a
// hit and a response hit. A duplicate put charges nothing.
func TestResponseMemo(t *testing.T) {
	reg := obs.NewRegistry()
	c := slicecache.New(slicecache.Options{Recorder: reg})
	src, build := buildFig5(t)
	ctx := context.Background()
	rk := recordKey(src, 14)

	if _, out, err := c.Get(ctx, src, build); err != nil || out != slicecache.Miss {
		t.Fatalf("first Get: outcome=%v err=%v", out, err)
	}
	if r, src := c.GetRecord(rk, acceptAll); r != nil || src != slicecache.RecordMiss {
		t.Fatalf("record before any put: %v via %v", r, src)
	}
	before := checkLedger(t, c, reg)
	rec := &slicecache.Record{Body: []byte(strings.Repeat("x", 1000)), SliceLines: 9, Stmts: 14}
	c.PutRecord(rk, rec)
	want := before.Bytes + recCost(rec)
	if st := checkLedger(t, c, reg); st.Bytes != want || st.Entries != before.Entries+1 {
		t.Fatalf("after PutRecord: %+v, want %d bytes in %d entries", st, want, before.Entries+1)
	}
	c.PutRecord(rk, &slicecache.Record{Body: []byte("other")})
	if got := checkLedger(t, c, reg).Bytes; got != want {
		t.Fatalf("Bytes after a duplicate PutRecord = %d, want %d", got, want)
	}

	if got, src := c.GetRecord(rk, acceptAll); got != rec || src != slicecache.RecordMemory {
		t.Fatalf("repeat GetRecord: %v via %v, want the stored record from memory", got, src)
	}
	if got, src := c.GetRecord(recordKey(src, 15), acceptAll); got != nil || src != slicecache.RecordMiss {
		t.Fatalf("other criterion: %v via %v, want a miss", got, src)
	}
	if _, out, _ := c.Get(ctx, src, build); out != slicecache.Hit {
		t.Fatalf("Get outcome = %v, want hit", out)
	}
	st := checkLedger(t, c, reg)
	if st.Hits != 2 || st.ResponseHits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 response hit, 1 miss", st)
	}
	if got := reg.Counter("cache.response_hits").Value(); got != 1 {
		t.Fatalf("cache.response_hits = %d, want 1", got)
	}
}

// TestResponseMemoEviction asserts records and analyses compete in one
// LRU: a record put on a full shard evicts the least recently used
// analysis, an analysis insert evicts a record, and every eviction
// refunds exactly its entry's cost.
func TestResponseMemoEviction(t *testing.T) {
	src, build := buildFig5(t)
	ctx := context.Background()
	mk := func(tag string) string { return src + "\n# " + tag } // distinct keys, same parse
	probe := slicecache.New(slicecache.Options{})
	a, _, err := probe.Get(ctx, mk("p"), build)
	if err != nil {
		t.Fatal(err)
	}
	// One shard, budget for two analyses and a small record.
	per := a.Footprint() + int64(len(mk("p"))) + slicecache.EntryOverhead
	reg := obs.NewRegistry()
	c := slicecache.New(slicecache.Options{MaxBytes: 2*per + per/2, Shards: 1, Recorder: reg})
	rec := &slicecache.Record{Body: []byte(strings.Repeat("y", 200))}

	if _, _, err := c.Get(ctx, mk("a"), build); err != nil {
		t.Fatal(err)
	}
	c.PutRecord(recordKey(mk("a"), 14), rec)
	if _, _, err := c.Get(ctx, mk("b"), build); err != nil {
		t.Fatal(err)
	}
	before := checkLedger(t, c, reg).Bytes
	// Analysis "a" is the LRU tail; inserting "c" evicts it and no
	// more: "a" and "c" cost the same, so the record stays.
	if _, _, err := c.Get(ctx, mk("c"), build); err != nil {
		t.Fatal(err)
	}
	st := checkLedger(t, c, reg)
	if c.Contains(mk("a")) || st.Evictions != 1 || st.Bytes != before {
		t.Fatalf("a resident=%v evictions=%d Bytes=%d (was %d), want a alone evicted",
			c.Contains(mk("a")), st.Evictions, st.Bytes, before)
	}
	if r, src := c.GetRecord(recordKey(mk("a"), 14), acceptAll); r != rec || src != slicecache.RecordMemory {
		t.Fatalf("the record of an evicted analysis: %v via %v, want it from memory", r, src)
	}

	// The record was just touched, so "b" is the LRU tail; a large
	// record evicts it.
	big := &slicecache.Record{Body: make([]byte, per/2)}
	c.PutRecord(recordKey(mk("c"), 14), big)
	st = checkLedger(t, c, reg)
	if c.Contains(mk("b")) || !c.Contains(mk("c")) || st.Evictions != 2 {
		t.Fatalf("after a large record: b=%v c=%v evictions=%d, want b evicted", c.Contains(mk("b")), c.Contains(mk("c")), st.Evictions)
	}
	if want := per + recCost(rec) + recCost(big); st.Bytes != want {
		t.Fatalf("Bytes = %d, want analysis c and both records (%d)", st.Bytes, want)
	}
}

// TestResponseStoreAfterEvictOrReplace asserts a record's life is its
// own: replacing its program's analysis with PutKey, deleting it, or
// caching a build error under another key leaves the record resident
// and the ledger exact.
func TestResponseStoreAfterEvictOrReplace(t *testing.T) {
	reg := obs.NewRegistry()
	c := slicecache.New(slicecache.Options{Recorder: reg})
	src, build := buildFig5(t)
	ctx := context.Background()
	rk := recordKey(src, 14)
	rec := &slicecache.Record{Body: []byte("body")}

	if _, _, err := c.Get(ctx, src, build); err != nil {
		t.Fatal(err)
	}
	c.PutRecord(rk, rec)
	a2, err := build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c.PutKey(slicecache.KeyOf(src), src, a2)
	if got, _ := c.GetRecord(rk, acceptAll); got != rec {
		t.Fatal("the record did not outlive its analysis's replacement")
	}
	checkLedger(t, c, reg)

	if !c.DeleteKey(slicecache.KeyOf(src)) {
		t.Fatal("DeleteKey found no entry")
	}
	if st := checkLedger(t, c, reg); st.Bytes != recCost(rec) || st.Entries != 1 {
		t.Fatalf("after deleting the analysis: %+v, want the record alone", st)
	}

	bad := func(context.Context) (*core.Analysis, error) { return nil, errors.New("bad program") }
	c.Get(ctx, "junk", bad)
	c.PutRecord(recordKey("junk", 1), rec)
	if st := checkLedger(t, c, reg); st.Entries != 3 {
		t.Fatalf("a negative entry and two records: %+v", st)
	}
}

// TestStressResponses races GetRecord and PutRecord (with disk
// write-through and promotion) against Get, PutKey replacement and
// budget evictions over a small key space under -race. Every record
// returned must be the one stored for that program and criterion,
// and the ledger must be exact afterwards.
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
	per := a.Footprint() + int64(len(src)) + slicecache.EntryOverhead
	reg := obs.NewRegistry()
	store, err := disk.Open(disk.Options{Dir: t.TempDir(), Recorder: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// One shard holding about a third of the programs: evictions are
	// constant and race the stores.
	c := slicecache.New(slicecache.Options{MaxBytes: per * keys / 3, Shards: 1, Recorder: reg, Disk: store})
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
				rk := recordKey(srcOf(i), line)
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
				rec, from := c.GetRecord(rk, acceptAll)
				if rec == nil {
					if _, _, err := c.Get(ctx, srcOf(i), build); err != nil {
						errc <- fmt.Errorf("worker %d: %w", w, err)
						return
					}
					lookups.Add(1)
					c.PutRecord(rk, &slicecache.Record{Body: bodyOf(i, line), SliceLines: line})
					continue
				}
				if from == slicecache.RecordMemory {
					lookups.Add(1)
					found.Add(1)
				}
				if string(rec.Body) != string(bodyOf(i, line)) {
					errc <- fmt.Errorf("worker %d: program %d line %d got the record stored for another key", w, i, line)
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
		t.Errorf("ResponseHits = %d, found %d records in memory; want equal and nonzero", st.ResponseHits, found.Load())
	}
	if st.Evictions == 0 {
		t.Error("stress budget produced no evictions; tighten MaxBytes")
	}
	if reg.Counter("disk.hits").Value() == 0 {
		t.Error("no record was read back from disk; tighten MaxBytes")
	}
}
