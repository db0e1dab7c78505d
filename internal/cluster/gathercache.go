package cluster

import (
	"cmp"
	"container/list"
	"sync"

	"opaq/internal/core"
	"opaq/internal/engine"
	"opaq/internal/runio"
)

// DefaultGatherCacheBytes bounds the coordinator's gather cache when
// Options.GatherCacheBytes is zero. Summaries are sample lists — tens of
// kilobytes each — so 64 MiB comfortably holds hundreds of tenants'
// owner sets plus merged results.
const DefaultGatherCacheBytes = 64 << 20

// ownerEntry is one owner's last successfully fetched summary for one
// tenant: the worker's strong ETag, the raw SaveSummary bytes, and the
// decoded summary, so a 304 revalidation skips both the body transfer
// and the decode. Entries are treated as immutable once stored — the
// summary is shared read-only with in-flight queries.
type ownerEntry[T cmp.Ordered] struct {
	etag string
	raw  []byte
	sum  *core.Summary[T]
}

// tenantEntry is one tenant's cache line: per-owner entries plus the
// merged snapshot (summary and equi-depth histogram) of the last fully
// successful (non-partial) gather, keyed on the owner version vector —
// the per-owner ETags joined in ring order, with misses marked. A
// matching vector proves every owner's contribution is unchanged, so the
// merged summary, its histogram and its lazily attached serialization
// can be reused without re-running MergeAll or histogram.Build.
type tenantEntry[T cmp.Ordered] struct {
	name      string
	owners    map[string]ownerEntry[T]
	mergedKey string
	merged    *engine.Snapshot[T]
	mergedRaw []byte // lazily attached SaveSummary bytes of merged.Summary
	bytes     int64
	elem      *list.Element
}

// gatherCache is the coordinator's per-tenant gather cache: an LRU over
// tenants bounded by an approximate byte budget. All methods are safe
// for concurrent use; the stored summaries are immutable and may be
// read concurrently by any number of queries.
type gatherCache[T cmp.Ordered] struct {
	mu       sync.Mutex
	capacity int64
	total    int64
	lru      *list.List // of *tenantEntry; front = most recently used
	tenants  map[string]*tenantEntry[T]
	elemSize int64
}

func newGatherCache[T cmp.Ordered](capacity int64) *gatherCache[T] {
	if capacity == 0 {
		capacity = DefaultGatherCacheBytes
	}
	return &gatherCache[T]{
		capacity: capacity,
		lru:      list.New(),
		tenants:  map[string]*tenantEntry[T]{},
		elemSize: int64(runio.ElemSize[T]()),
	}
}

// footprint approximates a summary's resident size: its sample list
// plus fixed bookkeeping. Exactness doesn't matter — the budget only
// needs to scale with reality to bound the cache.
func (c *gatherCache[T]) footprint(sum *core.Summary[T]) int64 {
	if sum == nil {
		return 0
	}
	return int64(sum.SampleCount())*c.elemSize + 96
}

func (c *gatherCache[T]) entryBytes(e *tenantEntry[T]) int64 {
	b := int64(len(e.mergedRaw))
	if e.merged != nil {
		b += c.footprint(e.merged.Summary)
		if e.merged.Hist != nil {
			b += int64(e.merged.Hist.Buckets())*c.elemSize + 96
		}
	}
	for _, oe := range e.owners {
		b += int64(len(oe.raw)) + c.footprint(oe.sum)
	}
	return b
}

// ownersSnapshot returns a copy of the tenant's per-owner entries (nil
// when the tenant is cold) and marks the tenant recently used. The
// copies are value copies of immutable state, so the fan-out can read
// them without holding the cache lock.
func (c *gatherCache[T]) ownersSnapshot(tenant string) map[string]ownerEntry[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.tenants[tenant]
	if e == nil {
		return nil
	}
	c.lru.MoveToFront(e.elem)
	out := make(map[string]ownerEntry[T], len(e.owners))
	for k, v := range e.owners {
		out[k] = v
	}
	return out
}

// mergedFor returns the cached merged snapshot when the tenant's vector
// key matches, with its serialized form if one has been attached.
func (c *gatherCache[T]) mergedFor(tenant, key string) (*engine.Snapshot[T], []byte, bool) {
	if key == "" {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.tenants[tenant]
	if e == nil || e.mergedKey != key || e.merged == nil {
		return nil, nil, false
	}
	c.lru.MoveToFront(e.elem)
	return e.merged, e.mergedRaw, true
}

// commit replaces the tenant's cache line wholesale: owners is the
// complete post-gather entry set (owners that failed or 404ed are
// simply absent — which is the per-owner invalidation on failure), and
// merged/key describe the gather's merged snapshot when it is cacheable
// (non-partial with every contributor tagged; key "" stores none).
// The tenant moves to the LRU front and older tenants are evicted past
// the byte budget.
func (c *gatherCache[T]) commit(tenant string, owners map[string]ownerEntry[T], key string, merged *engine.Snapshot[T]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.tenants[tenant]
	if e == nil {
		e = &tenantEntry[T]{name: tenant}
		e.elem = c.lru.PushFront(e)
		c.tenants[tenant] = e
	} else {
		c.lru.MoveToFront(e.elem)
		c.total -= e.bytes
	}
	e.owners = owners
	if e.mergedKey != key {
		e.mergedRaw = nil
	}
	e.mergedKey = key
	e.merged = merged
	if key == "" {
		e.merged = nil
		e.mergedRaw = nil
	}
	e.bytes = c.entryBytes(e)
	c.total += e.bytes
	// Evict from the cold end, never the line just written: a single
	// tenant larger than the whole budget stays resident alone rather
	// than thrashing.
	for c.total > c.capacity && c.lru.Len() > 1 {
		oldest := c.lru.Back()
		old := oldest.Value.(*tenantEntry[T])
		c.lru.Remove(oldest)
		delete(c.tenants, old.name)
		c.total -= old.bytes
	}
}

// attachMergedRaw stores the serialized form of the cached merged
// snapshot's summary, matched by pointer identity so a raced commit of a
// newer merge can never be paired with older bytes.
func (c *gatherCache[T]) attachMergedRaw(tenant string, merged *engine.Snapshot[T], raw []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.tenants[tenant]
	if e == nil || e.merged != merged || e.mergedRaw != nil {
		return
	}
	e.mergedRaw = raw
	e.bytes += int64(len(raw))
	c.total += int64(len(raw))
}

// drop forgets a tenant (admin delete).
func (c *gatherCache[T]) drop(tenant string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.tenants[tenant]
	if e == nil {
		return
	}
	c.lru.Remove(e.elem)
	delete(c.tenants, tenant)
	c.total -= e.bytes
}

// usage reports the cache's resident byte estimate and tenant count.
func (c *gatherCache[T]) usage() (bytes int64, tenants int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total, len(c.tenants)
}
