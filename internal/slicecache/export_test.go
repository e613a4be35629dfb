package slicecache

import "fmt"

// VerifyAccounting cross-checks every internal invariant the cache's
// byte ledger rests on, under all shard locks:
//
//   - a shard's bytes equal the sum of its resident entries' costs;
//   - a shard's bytes never exceed its budget (an oversized entry is
//     evicted in the same critical section that inserted it);
//   - the LRU list and the key map hold exactly the same entries, and
//     the list's forward and backward links agree.
//
// Exported to the test package only.
func (c *Cache) VerifyAccounting() error {
	for i, sh := range c.shards {
		sh.mu.Lock()
		err := sh.verifyLocked(i)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (sh *shard) verifyLocked(i int) error {
	var sum int64
	listed := 0
	var prev *entry
	for e := sh.head; e != nil; e = e.next {
		if e.prev != prev {
			return fmt.Errorf("shard %d: broken back link at entry %d", i, listed)
		}
		if sh.entries[e.key] != e {
			return fmt.Errorf("shard %d: listed entry missing from map", i)
		}
		sum += e.cost
		listed++
		prev = e
	}
	if sh.tail != prev {
		return fmt.Errorf("shard %d: tail does not terminate the list", i)
	}
	if listed != len(sh.entries) {
		return fmt.Errorf("shard %d: %d listed entries vs %d mapped", i, listed, len(sh.entries))
	}
	if sum != sh.bytes {
		return fmt.Errorf("shard %d: ledger %d bytes, entries sum to %d", i, sh.bytes, sum)
	}
	if sh.bytes > sh.max {
		return fmt.Errorf("shard %d: resident %d bytes over budget %d", i, sh.bytes, sh.max)
	}
	return nil
}

// ShardCount is exported for tests that reason about per-shard budgets.
func (c *Cache) ShardCount() int { return len(c.shards) }

// EntryOverhead is the fixed charge per resident entry: a record
// costs the length of its body plus this.
const EntryOverhead = entryOverhead

// HasRecord reports whether a record under k is resident in memory,
// without touching LRU order or stats.
func (c *Cache) HasRecord(k ResultKey) bool {
	key := Key(k)
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	return e != nil && e.rec != nil
}
