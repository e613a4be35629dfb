package slicecache

import (
	"crypto/sha256"
	"encoding/hex"

	"jumpslice/internal/slicecache/disk"
)

// This file is the record half of the cache: where an analysis
// memoizes the expensive middle of the pipeline (a *core.Analysis,
// which is pointer-rich and deliberately not serializable), a record
// memoizes a finished reply — its bytes, keyed by the full request.
// Bytes are what can cross process boundaries, so records are what
// peer fill ships between nodes and what the disk store keeps across
// restarts.

// resultKeyVersion names the reply encoding whose records are stored;
// bumping it orphans every stale record on disk and in peers.
const resultKeyVersion = "jumpslice/result-record/v2\x00"

// ResultKey is the content address of one finished reply: SHA-256
// over the version tag and the request tuple.
type ResultKey [sha256.Size]byte

// ResultKeyOf hashes the request tuple (the program's Key, var, line,
// algo, explain, ... — the fields the reply depends on) into a result
// key. Fields are NUL-separated so no two tuples collide by
// concatenation.
func ResultKeyOf(fields ...string) ResultKey {
	h := sha256.New()
	h.Write([]byte(resultKeyVersion))
	for _, f := range fields {
		h.Write([]byte(f))
		h.Write([]byte{0})
	}
	var k ResultKey
	h.Sum(k[:0])
	return k
}

// Hex renders the key as lowercase hex, the form the daemon's ETag
// and the cluster's /internal/fill?key= parameter carry.
func (k ResultKey) Hex() string { return hex.EncodeToString(k[:]) }

// Record is one stored reply. Body is opaque to the cache and is what
// the disk store keeps; SliceLines and Stmts are the counts the caller
// records for the request it answers (zero when the record was read
// back from bytes that do not carry them).
type Record struct {
	Body       []byte
	SliceLines int
	Stmts      int
}

// RecordSource reports where GetRecord found a record.
type RecordSource int

const (
	// RecordMiss: neither memory nor disk holds the key.
	RecordMiss RecordSource = iota
	// RecordMemory: answered from the LRU.
	RecordMemory
	// RecordDisk: read back from the disk store and promoted.
	RecordDisk
)

// String names the source as the daemon's X-Cache header reports it.
func (s RecordSource) String() string {
	switch s {
	case RecordMemory:
		return "result"
	case RecordDisk:
		return "disk"
	}
	return "miss"
}

// GetRecord returns the record stored under k and where it was found.
// A memory hit counts as a hit and a response hit. On a memory miss
// the disk store is read, and check decides whether its bytes are a
// valid record: an accepted record is promoted into memory, and
// rejected bytes are dropped from the store so the next PutRecord
// under k writes a fresh copy. A miss counts nothing; the caller's
// analysis lookup that follows counts the request.
func (c *Cache) GetRecord(k ResultKey, check func([]byte) (*Record, error)) (*Record, RecordSource) {
	key := Key(k)
	sh := c.shardOf(key)
	sh.mu.Lock()
	if e := sh.entries[key]; e != nil && e.rec != nil {
		sh.touchLocked(e)
		r := e.rec
		sh.mu.Unlock()
		c.count(&c.stats.Hits, c.m.hits)
		c.count(&c.stats.ResponseHits, c.m.responseHits)
		return r, RecordMemory
	}
	sh.mu.Unlock()
	if c.disk == nil {
		return nil, RecordMiss
	}
	data, ok := c.disk.Get(disk.Key(k))
	if !ok {
		return nil, RecordMiss
	}
	r, err := check(data)
	if err != nil {
		c.disk.Drop(disk.Key(k))
		return nil, RecordMiss
	}
	c.insertRecord(key, r)
	return r, RecordDisk
}

// PutRecord stores r under k in memory and writes it through to the
// disk store, if any, so a restart finds every record, not only the
// evicted ones. A record already resident under k is kept: records
// are content-addressed, so it holds the same bytes, and they are
// already on disk. A record costlier than a shard's whole budget is
// kept on disk only. r must not be modified afterwards.
func (c *Cache) PutRecord(k ResultKey, r *Record) {
	if c.insertRecord(Key(k), r) && c.disk != nil {
		// Best effort: a failed write costs warmth, never correctness.
		_ = c.disk.Put(disk.Key(k), r.Body)
	}
}

// insertRecord adds r to memory under key, evicting from the LRU tail
// to fit the shard's budget. It reports false when a record under key
// was already resident.
func (c *Cache) insertRecord(key Key, r *Record) bool {
	cost := int64(len(r.Body)) + entryOverhead
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.entries[key] != nil {
		return false
	}
	if cost <= sh.max {
		c.insertLocked(sh, &entry{key: key, rec: r, cost: cost})
	}
	return true
}
