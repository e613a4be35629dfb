package slicecache

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"jumpslice/internal/obs"
	"jumpslice/internal/slicecache/disk"
)

func resultKeyN(n int) ResultKey {
	return ResultKeyOf("src", fmt.Sprintf("v%d", n), "10", "hrb", "false")
}

// acceptAll is a GetRecord check that takes any bytes as a record.
func acceptAll(b []byte) (*Record, error) { return &Record{Body: b}, nil }

// openStore opens a disk store in a fresh directory, closed with the
// test.
func openStore(t *testing.T, reg obs.Recorder) *disk.Store {
	t.Helper()
	store, err := disk.Open(disk.Options{Dir: t.TempDir(), Recorder: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

func TestResultKeyOfSeparatesFields(t *testing.T) {
	if ResultKeyOf("ab", "c") == ResultKeyOf("a", "bc") {
		t.Fatal("field boundaries not hashed")
	}
	if ResultKeyOf("a", "b") != ResultKeyOf("a", "b") {
		t.Fatal("key not deterministic")
	}
}

// TestResultCacheMemoryOnly asserts a cache without a disk store keeps
// records in memory: a miss counts nothing, a hit returns the stored
// record and counts a hit and a response hit.
func TestResultCacheMemoryOnly(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20})
	if r, src := c.GetRecord(resultKeyN(1), acceptAll); src != RecordMiss || r != nil {
		t.Fatalf("empty cache returned %v via %v", r, src)
	}
	rec := &Record{Body: []byte("record-1"), SliceLines: 3, Stmts: 9}
	c.PutRecord(resultKeyN(1), rec)
	r, src := c.GetRecord(resultKeyN(1), acceptAll)
	if src != RecordMemory || r != rec {
		t.Fatalf("got %v via %v", r, src)
	}
	if st := c.Stats(); st.Hits != 1 || st.ResponseHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 hit that is a response hit, no misses", st)
	}
}

// TestResultCacheEvictionDemotesAndPromotes asserts records evicted
// from memory stay readable on disk, since every put wrote through,
// and a disk hit promotes the record back into memory. Evictions
// refund their bytes exactly.
func TestResultCacheEvictionDemotesAndPromotes(t *testing.T) {
	reg := obs.NewRegistry()
	store := openStore(t, reg)
	// One shard with room for three 1000-byte records.
	c := New(Options{MaxBytes: 3*(1000+entryOverhead) + 100, Shards: 1, Disk: store, Recorder: reg})
	payload := func(n int) []byte { return bytes.Repeat([]byte{byte(n)}, 1000) }
	for i := 0; i < 6; i++ {
		c.PutRecord(resultKeyN(i), &Record{Body: payload(i)})
		if err := c.VerifyAccounting(); err != nil {
			t.Fatal(err)
		}
	}
	if c.HasRecord(resultKeyN(0)) {
		t.Fatal("oldest record still in memory after budget overrun")
	}
	if st := c.Stats(); st.Evictions != 3 || st.Entries != 3 || st.Bytes != 3*(1000+entryOverhead) {
		t.Fatalf("stats after 6 puts = %+v, want 3 evictions and 3 resident records", st)
	}
	r, src := c.GetRecord(resultKeyN(0), acceptAll)
	if src != RecordDisk || !bytes.Equal(r.Body, payload(0)) {
		t.Fatalf("evicted record came back via %v", src)
	}
	if !c.HasRecord(resultKeyN(0)) {
		t.Fatal("disk hit not promoted into memory")
	}
	if _, src := c.GetRecord(resultKeyN(0), acceptAll); src != RecordMemory {
		t.Fatalf("promoted record served via %v", src)
	}
	if got := reg.Counter("disk.hits").Value(); got != 1 {
		t.Fatalf("disk.hits = %d, want 1", got)
	}
	if got := reg.Counter("disk.writes").Value(); got != 6 {
		t.Fatalf("disk.writes = %d, want one per record (6): promotion and eviction write nothing", got)
	}
	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestResultCacheWarmRestart asserts write-through: the hot set — not
// just the evicted part — survives a restart, so a fresh cache over
// the reopened store reads a record that was never evicted.
func TestResultCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := disk.Open(disk.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Options{MaxBytes: 1 << 20, Disk: store})
	c.PutRecord(resultKeyN(7), &Record{Body: []byte("hot-record")})
	if !c.HasRecord(resultKeyN(7)) {
		t.Fatal("record should be memory-resident pre-restart")
	}
	store.Close()

	store2, err := disk.Open(disk.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	c2 := New(Options{MaxBytes: 1 << 20, Disk: store2})
	r, src := c2.GetRecord(resultKeyN(7), acceptAll)
	if src != RecordDisk || string(r.Body) != "hot-record" {
		t.Fatalf("warm restart missed: %v via %v", r, src)
	}
}

// TestRecordLargerThanShard asserts a record costlier than its shard's
// budget is kept on disk only: memory, and everything already
// resident there, is left as it was.
func TestRecordLargerThanShard(t *testing.T) {
	store := openStore(t, nil)
	c := New(Options{MaxBytes: 4096, Shards: 1, Disk: store})
	c.PutRecord(resultKeyN(1), &Record{Body: []byte("small")})
	before := c.Stats()
	c.PutRecord(resultKeyN(2), &Record{Body: make([]byte, 4096)})
	if err := c.VerifyAccounting(); err != nil {
		t.Fatal(err)
	}
	if c.HasRecord(resultKeyN(2)) || !store.Contains(disk.Key(resultKeyN(2))) {
		t.Fatalf("oversized record: in memory %v, on disk %v; want disk only",
			c.HasRecord(resultKeyN(2)), store.Contains(disk.Key(resultKeyN(2))))
	}
	if after := c.Stats(); after != before || !c.HasRecord(resultKeyN(1)) {
		t.Fatalf("stats %+v -> %+v: an oversized record moved memory", before, after)
	}
	// Reading it back does not promote it either.
	if r, src := c.GetRecord(resultKeyN(2), acceptAll); src != RecordDisk || len(r.Body) != 4096 || c.HasRecord(resultKeyN(2)) {
		t.Fatalf("oversized record read back via %v, resident %v", src, c.HasRecord(resultKeyN(2)))
	}
}

// TestRecordCheckRejectsDisk asserts bytes the check rejects are
// neither served nor promoted: they are dropped from the store and
// counted corrupt, and the next put writes a fresh copy in their
// place.
func TestRecordCheckRejectsDisk(t *testing.T) {
	reg := obs.NewRegistry()
	store := openStore(t, reg)
	k := resultKeyN(3)
	if err := store.Put(disk.Key(k), []byte("stale")); err != nil {
		t.Fatal(err)
	}
	c := New(Options{Disk: store, Recorder: reg})
	reject := func([]byte) (*Record, error) { return nil, errors.New("not canonical") }
	if r, src := c.GetRecord(k, reject); src != RecordMiss || r != nil {
		t.Fatalf("rejected bytes served as %v via %v", r, src)
	}
	if c.HasRecord(k) || store.Contains(disk.Key(k)) {
		t.Fatal("rejected bytes were promoted or kept on disk")
	}
	if got := reg.Counter("disk.corrupt").Value(); got != 1 {
		t.Fatalf("disk.corrupt = %d, want 1", got)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("a record lookup counted %+v, want nothing", st)
	}
	c.PutRecord(k, &Record{Body: []byte("fresh")})
	c2 := New(Options{Disk: store})
	if r, src := c2.GetRecord(k, acceptAll); src != RecordDisk || string(r.Body) != "fresh" {
		t.Fatalf("after a fresh put, disk serves %v via %v", r, src)
	}
}
