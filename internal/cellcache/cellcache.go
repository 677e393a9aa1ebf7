// Package cellcache memoizes simulation cell results by content
// address. A cell's fingerprint (stash.RunSpec.Fingerprint) fully
// determines its result — every simulation is deterministic — so the
// cache stores the cell's serialized result bytes and a hit replays
// them byte-identically without running a single engine cycle.
//
// The package is layered (DESIGN.md §12):
//
//	Cache front   namespaces · singleflight · TTL · framing/codec · stats
//	      │
//	Engine        Memory (LRU) · Log (append-only CRC log) · Pairtree
//	              (one file per entry under hash-prefix directories)
//
// The Cache front owns every policy — concurrent fills of a key
// collapse to one computation (singleflight), failures are never
// cached, values are framed with a self-describing codec/expiry header
// and optionally gzip-compressed, TTL leases extend on read, and keys
// are prefixed with a tenant namespace so tenants can never read each
// other's cells. Engines are dumb byte stores behind the Engine
// interface; a persistent engine gets a Memory front tier composed in
// front of it, with store-tier hits promoted into memory.
package cellcache

import (
	"fmt"
	"sync"
	"time"
)

// Stats is a point-in-time counter snapshot; see Cache.Stats.
type Stats struct {
	// Hits counts lookups served from any tier; Misses the rest. A
	// singleflight follower counts as a hit (it never simulated).
	Hits, Misses uint64
	// MemHits and StoreHits split Hits by serving tier (followers are
	// in neither). A warm entry costs one StoreHit, then promotion
	// makes repeats MemHits.
	MemHits, StoreHits uint64
	// Collapsed counts singleflight followers: concurrent Do calls for
	// a key that shared another caller's in-flight computation.
	Collapsed uint64
	// Evictions counts entries dropped from the memory tier by bounds.
	Evictions uint64
	// Expired counts entries dropped because their TTL lease lapsed.
	Expired uint64
	// BytesRaw and BytesStored account compression on the stored tier:
	// payload bytes before framing vs framed (compressed) bytes
	// written. Their ratio is the compression ratio.
	BytesRaw, BytesStored uint64
	// RemoteFills, RemoteMisses, and RemoteErrors describe the remote
	// peer-fill tier when one is configured (remote+ specs): lookups a
	// peer answered, lookups no peer had, and peer fetches that failed.
	RemoteFills, RemoteMisses, RemoteErrors uint64
	// PutErrors counts store-tier writes that failed against the
	// engine; each one is a result that was served degraded (computed
	// but not persisted).
	PutErrors uint64
	// BreakerTrips counts closed→open transitions of the store tier's
	// circuit breaker; BreakerState is its state right now
	// (BreakerClosed, BreakerHalfOpen, or BreakerOpen).
	BreakerTrips uint64
	BreakerState int
	// MemEntries and MemBytes describe the memory tier right now;
	// StoreEntries the persistent engine (0 when memory-only).
	MemEntries   int
	MemBytes     int64
	StoreEntries int
}

// NamespaceStats are the per-tenant counters behind stashd's
// per-namespace metrics.
type NamespaceStats struct {
	Hits, Misses          uint64
	BytesRaw, BytesStored uint64
}

type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

const (
	tierMiss = iota
	tierMem
	tierStore
)

// Cache is the content-addressed result cache front over one or two
// engines. All methods are safe for concurrent use.
type Cache struct {
	mem     *Memory  // front tier; nil when disabled (Spec.Entries < 0)
	store   Engine   // persistent engine; nil for memory-only
	breaker *breaker // store-tier circuit breaker; nil when disabled or memory-only
	codec   byte     // codec for newly stored payloads
	ttl     time.Duration
	now     func() time.Time // injectable clock (tests)

	mu      sync.Mutex
	flights map[string]*flight
	stats   Stats
	ns      map[string]*NamespaceStats
}

func newCache(codec byte, ttl time.Duration) *Cache {
	return &Cache{
		codec:   codec,
		ttl:     ttl,
		now:     time.Now,
		flights: make(map[string]*flight),
		ns:      make(map[string]*NamespaceStats),
	}
}

// PersistError reports that a value was computed successfully but
// could not be written to the store tier — the result in hand is
// valid and must be served; only its durability is degraded. Do wraps
// every store-side write failure (engine I/O errors and
// breaker-skipped writes alike) in this type so callers can tell
// "serve it, count it, move on" apart from a failed computation.
type PersistError struct{ Err error }

func (e *PersistError) Error() string {
	return "cellcache: result computed but not persisted: " + e.Err.Error()
}
func (e *PersistError) Unwrap() error { return e.Err }

// storeAllowed reports whether store-tier operations may proceed
// under the breaker. With no breaker, always.
func (c *Cache) storeAllowed() bool {
	return c.breaker == nil || c.breaker.allow()
}

// storeWrite writes one frame to the store engine, feeding the
// breaker the outcome and counting engine failures.
func (c *Cache) storeWrite(k string, frame []byte) error {
	if !c.storeAllowed() {
		return ErrStoreUnavailable
	}
	if err := c.store.Put(k, frame); err != nil {
		if c.breaker != nil {
			c.breaker.failure()
		}
		c.mu.Lock()
		c.stats.PutErrors++
		c.mu.Unlock()
		return err
	}
	if c.breaker != nil {
		c.breaker.success()
	}
	return nil
}

// Close releases the engines. The cache must not be used afterwards.
func (c *Cache) Close() error {
	if c.mem != nil {
		c.mem.Close()
	}
	if c.store != nil {
		return c.store.Close()
	}
	return nil
}

// engineKey prefixes key with the tenant namespace. The empty
// namespace maps to the bare key, so single-tenant callers pay
// nothing. Namespaces must not contain ':' (stashd derives them as
// hex digests, see internal/serve).
func engineKey(ns, key string) string {
	if ns == "" {
		return key
	}
	return ns + ":" + key
}

// memCodec is the codec for memory-tier frames: raw when a persistent
// engine sits behind (hot hits must not pay decompression; the store
// copy carries the compression), the configured codec when memory is
// the only tier (trading CPU to fit more cells under MaxBytes).
func (c *Cache) memCodec() byte {
	if c.store != nil {
		return CodecRaw
	}
	return c.codec
}

// Get returns the cached bytes for key in namespace ns. The returned
// slice is shared: callers must not modify it.
func (c *Cache) Get(ns, key string) ([]byte, bool) {
	val, tier := c.lookup(engineKey(ns, key))
	c.account(ns, tier)
	return val, tier != tierMiss
}

// account updates the global and per-namespace hit/miss counters for
// one lookup outcome.
func (c *Cache) account(ns string, tier int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nsLocked(ns)
	switch tier {
	case tierMem:
		c.stats.Hits++
		c.stats.MemHits++
		n.Hits++
	case tierStore:
		c.stats.Hits++
		c.stats.StoreHits++
		n.Hits++
	default:
		c.stats.Misses++
		n.Misses++
	}
}

func (c *Cache) nsLocked(ns string) *NamespaceStats {
	n, ok := c.ns[ns]
	if !ok {
		n = &NamespaceStats{}
		c.ns[ns] = n
	}
	return n
}

// lookup reads through both tiers without touching the hit/miss
// counters (Get and Do account for their lookups themselves). Expired
// or undecodable frames are dropped and read as misses; store-tier
// hits are promoted into the memory tier; reads extend TTL leases.
func (c *Cache) lookup(k string) ([]byte, int) {
	now := c.now()
	if c.mem != nil {
		if frame, ok := c.mem.Get(k); ok {
			payload, expiry, _, err := decodeFrame(frame)
			switch {
			case err != nil:
				c.mem.Delete(k)
			case c.expired(expiry, now):
				c.dropExpired(k, true)
			default:
				c.extend(k, payload, expiry, now)
				return payload, tierMem
			}
		}
	}
	if c.store != nil && c.storeAllowed() {
		if frame, ok := c.store.Get(k); ok {
			payload, expiry, _, err := decodeFrame(frame)
			switch {
			case err != nil:
				c.store.Delete(k)
			case c.expired(expiry, now):
				c.dropExpired(k, false)
			default:
				expiry = c.extend(k, payload, expiry, now)
				if c.mem != nil {
					if mf, err := encodeFrame(c.memCodec(), expiry, payload); err == nil {
						c.mem.Put(k, mf)
					}
				}
				return payload, tierStore
			}
		}
	}
	return nil, tierMiss
}

func (c *Cache) expired(expiry int64, now time.Time) bool {
	return expiry != 0 && now.UnixNano() >= expiry
}

// dropExpired removes an expired entry from both tiers. A memory copy
// never outlives the store copy's lease (extensions update both), so
// expiry in memory implies expiry on the store.
func (c *Cache) dropExpired(k string, inMem bool) {
	if inMem && c.mem != nil {
		c.mem.Delete(k)
	}
	if c.store != nil {
		c.store.Delete(k)
	}
	c.mu.Lock()
	c.stats.Expired++
	c.mu.Unlock()
}

// extend implements extend-on-read: once a lease has burned through
// half its TTL, a read renews it to now+TTL in both tiers. The
// half-life threshold bounds rewrite traffic (a hot entry rewrites at
// most once per TTL/2) while guaranteeing an entry read at least once
// per TTL/2 never expires. Returns the (possibly renewed) expiry.
func (c *Cache) extend(k string, payload []byte, expiry int64, now time.Time) int64 {
	if c.ttl <= 0 || expiry == 0 || expiry-now.UnixNano() >= int64(c.ttl)/2 {
		return expiry
	}
	renewed := now.Add(c.ttl).UnixNano()
	if c.mem != nil {
		if mf, err := encodeFrame(c.memCodec(), renewed, payload); err == nil {
			c.mem.Put(k, mf)
		}
	}
	if c.store != nil {
		if sf, err := encodeFrame(c.codec, renewed, payload); err == nil {
			c.storeWrite(k, sf) // best effort; the read already succeeded
		}
	}
	return renewed
}

// Put stores val under key in namespace ns, in both tiers. The cache
// takes ownership of val; callers must not modify it afterwards.
func (c *Cache) Put(ns, key string, val []byte) error {
	return c.put(ns, engineKey(ns, key), val)
}

func (c *Cache) put(ns, k string, val []byte) error {
	var expiry int64
	if c.ttl > 0 {
		expiry = c.now().Add(c.ttl).UnixNano()
	}
	if c.mem != nil {
		mf, err := encodeFrame(c.memCodec(), expiry, val)
		if err != nil {
			return fmt.Errorf("cellcache: framing %s: %w", k, err)
		}
		c.mem.Put(k, mf)
		if c.store == nil {
			c.accountStored(ns, len(val), len(mf))
		}
	}
	if c.store != nil {
		sf, err := encodeFrame(c.codec, expiry, val)
		if err != nil {
			return fmt.Errorf("cellcache: framing %s: %w", k, err)
		}
		if err := c.storeWrite(k, sf); err != nil {
			return fmt.Errorf("cellcache: persisting %s: %w", k, err)
		}
		c.accountStored(ns, len(val), len(sf))
	}
	return nil
}

func (c *Cache) accountStored(ns string, raw, stored int) {
	c.mu.Lock()
	c.stats.BytesRaw += uint64(raw)
	c.stats.BytesStored += uint64(stored)
	n := c.nsLocked(ns)
	n.BytesRaw += uint64(raw)
	n.BytesStored += uint64(stored)
	c.mu.Unlock()
}

// Do returns the cached bytes for key in namespace ns, computing them
// with fn on a miss. Concurrent Do calls for the same (ns, key) run fn
// once: the leader computes and stores, followers block and share the
// result. cached reports whether the bytes came without running fn in
// this call — from either tier or from another caller's flight. fn
// errors are returned to every waiter and never cached.
//
// A computed-but-not-persisted value — the engine write failed or the
// breaker skipped it — is returned alongside a *PersistError: val is
// valid and servable, only its durability is degraded. The disk being
// sick must never fail a computation that succeeded.
func (c *Cache) Do(ns, key string, fn func() ([]byte, error)) (val []byte, cached bool, err error) {
	k := engineKey(ns, key)
	if val, tier := c.lookup(k); tier != tierMiss {
		c.account(ns, tier)
		return val, true, nil
	}
	c.mu.Lock()
	if f, ok := c.flights[k]; ok {
		c.stats.Hits++
		c.stats.Collapsed++
		c.nsLocked(ns).Hits++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		return f.val, true, nil
	}
	// Re-check the memory tier under the flight lock: a leader deletes
	// its flight only after Put, so a flight that landed between the
	// lookup above and here is visible either in the flight map or in
	// the memory tier — never a second run.
	if c.mem != nil {
		if frame, ok := c.mem.Get(k); ok {
			if payload, expiry, _, err := decodeFrame(frame); err == nil && !c.expired(expiry, c.now()) {
				c.stats.Hits++
				c.stats.MemHits++
				c.nsLocked(ns).Hits++
				c.mu.Unlock()
				return payload, true, nil
			}
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.stats.Misses++
	c.nsLocked(ns).Misses++
	c.mu.Unlock()

	f.val, f.err = fn()
	if f.err == nil {
		if perr := c.put(ns, k, f.val); perr != nil {
			// The result is valid even if persisting it failed; keep
			// serving it and surface the disk problem to the leader only,
			// typed so callers can serve degraded instead of failing.
			err = &PersistError{Err: perr}
		}
	}
	c.mu.Lock()
	delete(c.flights, k)
	c.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, false, f.err
	}
	return f.val, false, err
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	if c.mem != nil {
		s.MemEntries, s.MemBytes, s.Evictions = c.mem.usage()
	}
	if c.store != nil {
		s.StoreEntries = c.store.Len()
	}
	if r, ok := c.store.(*Remote); ok {
		s.RemoteFills, s.RemoteMisses, s.RemoteErrors = r.snapshot()
	}
	if c.breaker != nil {
		s.BreakerState, s.BreakerTrips = c.breaker.snapshot()
	}
	return s
}

// PeekFrame returns the stored frame for an engine key (ns:fingerprint
// or a bare fingerprint) exactly as a tier holds it — no stats, no TTL
// extension, no promotion, and, crucially, no remote tier: a Remote
// store is read through its Local engine, so one shard peeking another
// can never cascade into peer-of-peer fetches. Expired and undecodable
// frames read as absent. This is the read side of GET /v1/cellframe,
// the shard-to-shard peer-fill protocol.
func (c *Cache) PeekFrame(key string) ([]byte, bool) {
	now := c.now()
	usable := func(frame []byte) bool {
		payload, expiry, _, err := decodeFrame(frame)
		return err == nil && payload != nil && !c.expired(expiry, now)
	}
	if c.mem != nil {
		if frame, ok := c.mem.Get(key); ok && usable(frame) {
			return frame, true
		}
	}
	store := c.store
	if r, ok := store.(*Remote); ok {
		store = r.Local()
	}
	if store != nil && c.storeAllowed() {
		if frame, ok := store.Get(key); ok && usable(frame) {
			return frame, true
		}
	}
	return nil, false
}

// Probe round-trips a sentinel entry through every tier — write, read
// back, compare, delete — straight against the engines (bypassing the
// breaker), verifying the cache is usable before a daemon starts
// taking traffic. A broken -cache target fails fast at boot with a
// clear error instead of erroring on the first live request.
func (c *Cache) Probe() error {
	const key = "!probe" // '!' can never appear in a ns:fingerprint key
	want := []byte("stashd startup probe")
	frame, err := encodeFrame(c.codec, 0, want)
	if err != nil {
		return fmt.Errorf("cellcache: probe framing: %w", err)
	}
	probeEngine := func(tier string, e Engine) error {
		if err := e.Put(key, frame); err != nil {
			return fmt.Errorf("cellcache: %s tier probe write: %w", tier, err)
		}
		got, ok := e.Get(key)
		if !ok {
			return fmt.Errorf("cellcache: %s tier probe read: written entry not found", tier)
		}
		payload, _, _, err := decodeFrame(got)
		if err != nil {
			return fmt.Errorf("cellcache: %s tier probe read: %w", tier, err)
		}
		if string(payload) != string(want) {
			return fmt.Errorf("cellcache: %s tier probe read back %d bytes, want %d", tier, len(payload), len(want))
		}
		e.Delete(key)
		return nil
	}
	if c.mem != nil {
		if err := probeEngine("memory", c.mem); err != nil {
			return err
		}
	}
	if c.store != nil {
		if err := probeEngine("store", c.store); err != nil {
			return err
		}
	}
	return nil
}

// Namespaces snapshots the per-tenant counters, keyed by namespace.
func (c *Cache) Namespaces() map[string]NamespaceStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]NamespaceStats, len(c.ns))
	for ns, n := range c.ns {
		out[ns] = *n
	}
	return out
}

// purgeExpired drops entries whose lease already lapsed from the
// persistent engine. Run once at open, so a restarted daemon does not
// resurrect expired cells (and their disk space, for Pairtree, is
// reclaimed). frameExpiry reads only the header — no decompression.
func (c *Cache) purgeExpired() {
	now := c.now()
	var expired []string
	c.store.Keys(func(k string) bool {
		if frame, ok := c.store.Get(k); ok {
			if expiry, ok := frameExpiry(frame); ok && c.expired(expiry, now) {
				expired = append(expired, k)
			}
		}
		return true
	})
	for _, k := range expired {
		c.store.Delete(k)
	}
	if len(expired) > 0 {
		c.mu.Lock()
		c.stats.Expired += uint64(len(expired))
		c.mu.Unlock()
	}
}
