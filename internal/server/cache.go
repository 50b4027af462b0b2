package server

import (
	"sync"
	"sync/atomic"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/trace"
)

// queryCache memoizes candidate lists for private queries over the
// PUBLIC table. It exploits a structural property of Casper: cloaked
// regions are grid-aligned (one pyramid cell or a sibling pair), so
// different users — and the same user across small movements — issue
// literally identical cloaks, and the public table changes rarely.
// Entries are validated against a table version stamped at fill time;
// any public-table mutation invalidates the whole cache in O(1) by
// bumping the version.
//
// The cache is lock-free on the hot path (a sync.Map load plus a
// closed-channel receive) and single-flight on misses: concurrent
// queries for the same cold key elect one leader via LoadOrStore, the
// leader computes and closes the entry's ready channel, and everyone
// else blocks on that channel instead of recomputing the candidate
// list. Errors are never cached — a failed leader deletes its entry
// and each waiter computes independently.
//
// The private table is deliberately not cached: every location update
// mutates it, so entries would be dead on arrival.
type queryCache struct {
	entries sync.Map // cacheKey -> *cacheEntry
	size    atomic.Int64
	maxSize int

	// evictMu serializes evictions only; lookups and fills never take
	// it.
	evictMu sync.Mutex

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheKey struct {
	region  geom.Rect
	filters int
	k       int // 1 for PrivateNN; >1 for PrivateKNN
}

// cacheEntry is one published or in-flight computation. ready is
// closed once res/err are valid; an entry whose channel is still open
// is being computed by its leader.
type cacheEntry struct {
	version int64
	ready   chan struct{}
	res     privacyqp.Result
	err     error
}

func newQueryCache(maxSize int) *queryCache {
	return &queryCache{maxSize: maxSize}
}

// cacheable trims a computed result to what callers read before the
// cache retains it: the Filters diagnostic, which no serving path uses,
// is dropped, shrinking each of the up to maxSize retained results by
// about a fifth.
func cacheable(res privacyqp.Result, err error) (privacyqp.Result, error) {
	res.Filters = nil
	return res, err
}

// do returns the result for key at the given table version, computing
// it at most once across all concurrent callers: the first caller to
// install the entry runs compute and fills it; everyone else waits on
// the entry's ready channel and shares the result. tr, when non-nil,
// receives a "singleflight_wait" span if this caller had to block on
// another caller's in-flight computation.
func (c *queryCache) do(key cacheKey, version int64, tr *trace.Trace, compute func() (privacyqp.Result, error)) (privacyqp.Result, error) {
	for {
		fresh := &cacheEntry{version: version, ready: make(chan struct{})}
		got, loaded := c.entries.LoadOrStore(key, fresh)
		if loaded {
			e := got.(*cacheEntry)
			if e.version == version {
				select {
				case <-e.ready:
				default:
					// The leader is still computing: this caller will
					// actually block, which is worth a span of its own.
					wsp := tr.StartSpan("singleflight_wait")
					<-e.ready
					wsp.End()
				}
				if e.err != nil {
					// The leader failed. Errors are not cached (the
					// leader removed the entry); compute independently
					// rather than serving a stale failure.
					c.misses.Add(1)
					cacheMisses.Inc()
					return compute()
				}
				c.hits.Add(1)
				cacheHits.Inc()
				return e.res, nil
			}
			// Stale version: atomically replace it and take leadership.
			// On CAS failure another caller already swapped; retry the
			// lookup from scratch.
			if !c.entries.CompareAndSwap(key, got, fresh) {
				continue
			}
		} else {
			c.size.Add(1)
		}
		// This caller is the leader for (key, version).
		c.misses.Add(1)
		cacheMisses.Inc()
		c.maybeEvict(version)
		res, err := compute()
		fresh.res, fresh.err = res, err
		close(fresh.ready)
		if err != nil {
			if c.entries.CompareAndDelete(key, fresh) {
				c.size.Add(-1)
			}
		}
		return res, err
	}
}

// get returns a cached, completed result valid at the given table
// version. It never blocks: an in-flight entry counts as a miss.
func (c *queryCache) get(key cacheKey, version int64) (privacyqp.Result, bool) {
	if v, ok := c.entries.Load(key); ok {
		e := v.(*cacheEntry)
		if e.version == version {
			select {
			case <-e.ready:
				if e.err == nil {
					c.hits.Add(1)
					cacheHits.Inc()
					return e.res, true
				}
			default:
			}
		}
	}
	c.misses.Add(1)
	cacheMisses.Inc()
	return privacyqp.Result{}, false
}

// put stores a completed result computed at the given table version,
// evicting first when full (stale versions purged before any current
// entry is sacrificed).
func (c *queryCache) put(key cacheKey, res privacyqp.Result, version int64) {
	c.maybeEvict(version)
	e := &cacheEntry{version: version, res: res, ready: make(chan struct{})}
	close(e.ready)
	if _, loaded := c.entries.Swap(key, e); !loaded {
		c.size.Add(1)
	}
}

// maybeEvict makes room when the cache is at capacity. Entries stamped
// with an outdated table version are purged wholesale first — they can
// never hit again (lookups compare versions exactly), so they are
// strictly better victims than live entries. Only if the cache is
// still full do pseudo-random current entries (sync.Map range order)
// go; in-flight entries are skipped so a leader's slot is never pulled
// out from under its waiters.
func (c *queryCache) maybeEvict(liveVersion int64) {
	if int(c.size.Load()) < c.maxSize {
		return
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	c.entries.Range(func(k, v any) bool {
		if v.(*cacheEntry).version != liveVersion {
			if c.entries.CompareAndDelete(k, v) {
				c.size.Add(-1)
			}
		}
		return true
	})
	if int(c.size.Load()) < c.maxSize {
		return
	}
	c.entries.Range(func(k, v any) bool {
		e := v.(*cacheEntry)
		select {
		case <-e.ready:
		default:
			return true // in-flight: not a victim
		}
		if c.entries.CompareAndDelete(k, v) {
			c.size.Add(-1)
		}
		return int(c.size.Load()) >= c.maxSize
	})
}

// len returns the number of stored entries.
func (c *queryCache) len() int { return int(c.size.Load()) }

// stats returns (hits, misses).
func (c *queryCache) stats() (int64, int64) {
	return c.hits.Load(), c.misses.Load()
}
