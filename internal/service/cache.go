package service

import (
	"container/list"
	"sync"
)

// cacheKey is the content address of a partition result: the SHA-256 of
// the canonical METIS serialization of the input graph plus the full
// parameter tuple (k, m, p, seed, tol, scheme). Two requests that describe
// the same graph with different whitespace, comment lines, or adjacency
// order hash identically because the graph is re-serialized canonically
// before hashing. It is the only key of both cache tiers; a byte-identical
// repeat of a POST /v1/partition body skips the derivation through the
// entry's body fingerprint (bodyPrint).
type cacheKey [32]byte

// bodyPrint is the SHA-256 of the raw body of an untraced POST
// /v1/partition request. Once the request is answered 200, its print is
// an alias of the entry that answered it, so a byte-identical repeat is
// served without decoding the JSON, parsing the graph, building a mesh or
// deriving the key. A body always derives the same key, so a print never
// needs to move between entries. An entry keeps one print, the latest, so
// byte variants of one key (whitespace, comments, field order) replace
// each other's alias instead of growing the entry.
type bodyPrint [32]byte

// resultCache is a mutex-guarded LRU over completed partition results.
// Results are immutable once inserted (handlers serve the shared *Result
// without copying), so a hit costs one map lookup and a list splice. The
// prints index aliases entries by body print; it holds at most one print
// per resident entry, so it shares the LRU's capacity and eviction.
type resultCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	items  map[cacheKey]*list.Element
	prints map[bodyPrint]*list.Element
	bytes  int64 // approximate resident payload bytes (see approxSize)

	onEvict func() // metrics hook; may be nil
}

type cacheEntry struct {
	key cacheKey
	res *Result
	// print and shape are set when a body print is attached; the key
	// determines the shape, so every body of the entry shares it. Until
	// then print is the zero value, which no body hashes to in practice,
	// so deleting it from the prints index does nothing.
	print bodyPrint
	shape responseShape
	// reply is the encoded answer of a body-print hit, stored on the
	// entry's first one. It depends only on res and shape, so a refresh
	// of res drops it and a replaced print keeps it.
	reply []byte
}

// size is the entry's share of the mcpartd_cache_bytes gauge.
func (e *cacheEntry) size() int64 { return approxSize(e.res) + int64(len(e.reply)) }

// approxSize estimates a result's resident footprint for the
// mcpartd_cache_bytes gauge: the dominant slices plus a small fixed
// overhead for the struct, map entry, and list element. An estimate is
// enough — the gauge exists so operators can size the disk tier against
// real label volumes, not for exact accounting.
func approxSize(r *Result) int64 {
	return int64(4*len(r.Labels) + 8*len(r.Imbalances) + len(r.Trace) + 128)
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[cacheKey]*list.Element, capacity),
		prints: make(map[bodyPrint]*list.Element),
	}
}

// get returns the cached result for k, refreshing its recency, or nil.
func (c *resultCache) get(k cacheKey) *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res
}

// getPrint returns the result, response shape and stored hit reply (nil
// until keepReply stores one) of the entry body print p is attached to,
// refreshing its recency as get does.
func (c *resultCache) getPrint(p bodyPrint) (*Result, responseShape, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.prints[p]
	if !ok {
		return nil, responseShape{}, nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.res, e.shape, e.reply, true
}

// keepReply stores reply, the body-print hit reply encoded from res, with
// the entry p is attached to. It does nothing when p no longer resolves,
// when the entry no longer holds res, or when a concurrent first hit
// stored its reply first.
func (c *resultCache) keepReply(p bodyPrint, res *Result, reply []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.prints[p]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.res != res || e.reply != nil {
		return
	}
	e.reply = reply
	c.bytes += int64(len(reply))
}

// attach aliases body print p to the resident entry of k, replacing the
// entry's previous print, and records the response shape of its requests.
// It does nothing when k is not resident (caching is off, or the entry was
// evicted since it answered).
func (c *resultCache) attach(k cacheKey, p bodyPrint, shape responseShape) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	delete(c.prints, e.print)
	e.print, e.shape = p, shape
	c.prints[p] = el
}

// put inserts (or refreshes) a result, evicting the least recently used
// entry, with its body print and stored reply, when over capacity. A
// refresh keeps the entry's print and drops its stored reply. A capacity
// of zero disables caching.
func (c *resultCache) put(k cacheKey, r *Result) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes -= e.size()
		e.res, e.reply = r, nil
		c.bytes += e.size()
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, res: r})
	c.bytes += approxSize(r)
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		e := last.Value.(*cacheEntry)
		delete(c.items, e.key)
		delete(c.prints, e.print)
		c.bytes -= e.size()
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// len returns the number of resident entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// bytesNow returns the approximate resident bytes.
func (c *resultCache) bytesNow() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
