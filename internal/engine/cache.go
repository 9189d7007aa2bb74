package engine

import (
	"container/list"
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"bedom/internal/obs"
)

// substrateKind discriminates the cached substrate types.
type substrateKind uint8

const (
	kindOrder  substrateKind = iota // a *order.Order for radius A
	kindWReach                      // the summary of the radius-B sweep of the order for radius A
	kindAnswer                      // an *answer to a sequential query of radius A
)

func (k substrateKind) String() string {
	switch k {
	case kindOrder:
		return "order"
	case kindWReach:
		return "wreach"
	case kindAnswer:
		return "answer"
	default:
		return "substrate(?)"
	}
}

// substrateKey identifies one cached substrate: a graph generation (graphs
// get a fresh generation on every (re-)registration and on mutation), the
// substrate kind, up to two integer parameters (see the kind constants), and
// for answers the query kind and solver strategy name — per-solver answers
// cache and invalidate independently, so mixed-solver workloads on one graph
// never cross-contaminate.
type substrateKey struct {
	gen    uint64
	kind   substrateKind
	a, b   int
	query  Kind
	solver string
}

// substrateCache is an LRU-bounded cache with single-flight deduplication:
// concurrent getOrBuild calls for the same key run the build function exactly
// once; late callers wait for the in-flight build and share its result.
type substrateCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[substrateKey]*list.Element
	inflight map[substrateKey]*inflightBuild
	// retired holds purged graph generations so that a build which finishes
	// after its graph was removed or re-registered is handed to its waiters
	// but not inserted into the cache (the generation can never be queried
	// again, so the entry would only waste an LRU slot).
	retired map[uint64]struct{}

	// stats holds the cache counters (hits/misses/coalesced/evictions live
	// in the engine's metrics registry so Stats and /metrics read the same
	// atomics).
	stats *statsCollector
}

type cacheEntry struct {
	key substrateKey
	val any
}

type inflightBuild struct {
	done chan struct{}
	val  any
	err  error
}

func newSubstrateCache(capacity int, stats *statsCollector) *substrateCache {
	return &substrateCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[substrateKey]*list.Element),
		inflight: make(map[substrateKey]*inflightBuild),
		retired:  make(map[uint64]struct{}),
		stats:    stats,
	}
}

// getOrBuild returns the cached value for key, building it with build on a
// miss.  hit reports whether the value was served without running build in
// this call (a fresh cache hit or a coalesced wait both count).  A caller
// coalescing onto another query's in-flight build stops waiting when its ctx
// expires (the build itself continues for the builder).  Errors are not
// cached: a failed build leaves the key absent.
func (c *substrateCache) getOrBuild(ctx context.Context, key substrateKey, build func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		c.stats.cacheHits.Inc()
		return v, true, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-call.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		c.stats.cacheCoalesced.Inc()
		return call.val, true, call.err
	}
	call := &inflightBuild{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	c.stats.cacheMisses.Inc()
	// The build runs caller-supplied pipeline code (solvers included).  A
	// panic here must be contained: letting it escape would skip the inflight
	// cleanup and the close below, deadlocking every coalesced waiter on a
	// channel nobody will ever close — and then kill the worker's process.
	// Recovered panics become ordinary build errors (not cached, like any
	// other error), delivered to the builder and all waiters.
	func() {
		defer func() {
			if p := recover(); p != nil {
				c.stats.queryPanics.Inc()
				slog.Error("substrate build panicked",
					"query_id", obs.QueryID(ctx), "substrate", key.kind.String(),
					"panic", p, "stack", string(debug.Stack()))
				call.val, call.err = nil, fmt.Errorf("%w: substrate %s build: %v", ErrQueryPanic, key.kind, p)
			}
		}()
		call.val, call.err = build()
	}()

	c.mu.Lock()
	delete(c.inflight, key)
	if _, dead := c.retired[key.gen]; call.err == nil && !dead {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: call.val})
		for c.ll.Len() > c.capacity {
			back := c.ll.Back()
			c.ll.Remove(back)
			delete(c.items, back.Value.(*cacheEntry).key)
			c.stats.cacheEvictions.Inc()
		}
	}
	c.mu.Unlock()
	close(call.done)
	return call.val, false, call.err
}

// purge drops every entry belonging to the given graph generation and
// retires the generation (used when a graph is removed, re-registered under
// the same name, or mutated).  It returns the number of entries dropped.
func (c *substrateCache) purge(gen uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.retired) >= 1<<16 {
		// A retired generation costs 8 bytes forever; reset the set at an
		// absurd size, re-accepting the one-dead-LRU-slot race it prevents.
		c.retired = make(map[uint64]struct{})
	}
	c.retired[gen] = struct{}{}
	purged := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.gen == gen {
			c.ll.Remove(el)
			delete(c.items, e.key)
			purged++
		}
		el = next
	}
	return purged
}

// clear drops every cached entry.  Used on engine Close, after the executor
// has drained; like Close itself it must not race with in-flight queries.
func (c *substrateCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[substrateKey]*list.Element)
}

// len returns the current number of cached entries.
func (c *substrateCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// nestedKey carries a running build's timer on the context its nested
// stages run under: a *time.Duration summing their spans.
type nestedKey struct{}

// fetch is one cached stage of a query: the span name around the cache
// lookup and, on a miss, the build (see build).  Hit or miss, the span's
// duration counts as nested time of the build that fetches, if any.
func (e *Engine) fetch(ctx context.Context, key substrateKey, name, label string, f func(context.Context) (any, error)) (any, bool, error) {
	sp := obs.Start(ctx, name)
	defer nest(ctx, sp)
	return e.cache.getOrBuild(ctx, key, func() (any, error) { return e.build(ctx, name, label, f) })
}

// step is fetch without the cache, for a stage whose result no other
// query reads (the cds witness traversal).
func (e *Engine) step(ctx context.Context, name, label string, f func(context.Context) (any, error)) (any, error) {
	sp := obs.Start(ctx, name)
	defer nest(ctx, sp)
	return e.build(ctx, name, label, f)
}

// build runs f under the stage hook name.  f's context keeps ctx's values,
// so nested stages land in the query's trace, but not its deadline: a build
// is shared work, and one requester's timeout must not become the error of
// every query that coalesced onto it.  It also carries the build's timer, so
// a successful build records its exclusive time under label: its duration
// minus the spans of the stages nested in it.
func (e *Engine) build(ctx context.Context, name, label string, f func(context.Context) (any, error)) (any, error) {
	e.stage(name)
	var nested time.Duration
	start := time.Now()
	v, err := f(context.WithValue(context.WithoutCancel(ctx), nestedKey{}, &nested))
	if err == nil {
		e.stats.buildSeconds.With(label).ObserveDuration(time.Since(start) - nested)
	}
	return v, err
}

// nest ends sp and adds its duration to the timer of the build ctx belongs
// to, if any.
func nest(ctx context.Context, sp obs.Span) {
	d := sp.End()
	if nested, ok := ctx.Value(nestedKey{}).(*time.Duration); ok {
		*nested += d
	}
}
