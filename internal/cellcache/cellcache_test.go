package cellcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMemHitMiss(t *testing.T) {
	c, err := Spec{Scheme: "memory"}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get("", "k"); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put("", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get("", "k")
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	s := c.Stats()
	// MemBytes counts framed bytes: frameHdr + 1 payload byte.
	if s.Hits != 1 || s.Misses != 1 || s.MemHits != 1 || s.MemEntries != 1 || s.MemBytes != frameHdr+1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestLRUEvictionBounds fills past both bounds and checks the tier
// stays bounded, evicts oldest-first, and keeps recently-used entries.
func TestLRUEvictionBounds(t *testing.T) {
	c, err := Spec{Scheme: "memory", Entries: 4, Bytes: 1 << 20}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		c.Put("", fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	s := c.Stats()
	if s.MemEntries != 4 || s.Evictions != 6 {
		t.Fatalf("after 10 puts into a 4-entry tier: %+v", s)
	}
	for i := 0; i < 6; i++ {
		if _, ok := c.Get("", fmt.Sprintf("k%d", i)); ok {
			t.Errorf("k%d survived eviction", i)
		}
	}
	for i := 6; i < 10; i++ {
		if _, ok := c.Get("", fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d missing", i)
		}
	}

	// Recently-used survives: touch k6, insert, expect k7 evicted first.
	c.Get("", "k6")
	c.Put("", "kA", []byte("a"))
	if _, ok := c.Get("", "k6"); !ok {
		t.Error("recently-used k6 was evicted before older k7")
	}
	if _, ok := c.Get("", "k7"); ok {
		t.Error("k7 should have been the LRU victim")
	}
}

// TestByteBound checks the byte bound evicts independently of the
// entry bound (while always retaining at least one entry, so a single
// oversized value still caches).
func TestByteBound(t *testing.T) {
	c, err := Spec{Scheme: "memory", Entries: 100, Bytes: 150}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Put("", fmt.Sprintf("k%d", i), make([]byte, 40)) // 40+frameHdr stored
	}
	if s := c.Stats(); s.MemBytes > 150 || s.MemEntries > 2 {
		t.Errorf("byte bound not enforced: %+v", s)
	}
	c.Put("", "big", make([]byte, 500))
	if _, ok := c.Get("", "big"); !ok {
		t.Error("oversized value should still be retained as the sole entry")
	}
}

func TestDiskRoundTripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := Spec{Scheme: "log", Path: dir}.Open()
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("cell-%03d", i)
		v := bytes.Repeat([]byte{byte(i)}, 10+i)
		vals[k] = v
		if err := c.Put("", k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulated restart: a fresh cache over the same directory serves
	// every entry from the log.
	c2, err := Spec{Scheme: "log", Path: dir}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n := c2.Stats().StoreEntries; n != 20 {
		t.Fatalf("restarted index has %d entries, want 20", n)
	}
	for k, want := range vals {
		got, ok := c2.Get("", k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("after restart, Get(%s) = %q, %v; want %q", k, got, ok, want)
		}
	}
	if s := c2.Stats(); s.StoreHits != 20 {
		t.Errorf("want 20 store hits after restart, got %+v", s)
	}
	// Promotion: a second Get is a memory hit, not another store read.
	c2.Get("", "cell-000")
	if s := c2.Stats(); s.StoreHits != 20 || s.MemHits != 1 {
		t.Errorf("promoted entry re-read from store: %+v", s)
	}
}

// TestCorruptedDiskEntrySkipped flips a byte inside one record's value
// and checks that on reload only that record is lost — the entries
// before and after it still serve — and the cache keeps working.
func TestCorruptedDiskEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	c, err := Spec{Scheme: "log", Path: dir}.Open()
	if err != nil {
		t.Fatal(err)
	}
	c.Put("", "aaa", []byte("first-value"))
	c.Put("", "bbb", []byte("second-value"))
	c.Put("", "ccc", []byte("third-value"))
	c.Close()

	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, []byte("second-value"))
	if i < 0 {
		t.Fatal("second record not found in log")
	}
	raw[i] ^= 0xff
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}

	c2, err := Spec{Scheme: "log", Path: dir}.Open()
	if err != nil {
		t.Fatalf("corrupted record must not be fatal: %v", err)
	}
	defer c2.Close()
	if _, ok := c2.Get("", "bbb"); ok {
		t.Error("corrupted record served")
	}
	for _, k := range []string{"aaa", "ccc"} {
		if _, ok := c2.Get("", k); !ok {
			t.Errorf("intact record %s lost alongside the corrupted one", k)
		}
	}
	// The corrupted key is a plain miss: re-putting repairs it.
	if err := c2.Put("", "bbb", []byte("second-value")); err != nil {
		t.Fatal(err)
	}
	if v, ok := c2.Get("", "bbb"); !ok || string(v) != "second-value" {
		t.Error("re-put after corruption did not take")
	}
}

// TestTornTailTruncated cuts the log mid-record (a crash during
// append) and checks the intact prefix loads and appends still work.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	c, err := Spec{Scheme: "log", Path: dir}.Open()
	if err != nil {
		t.Fatal(err)
	}
	c.Put("", "aaa", []byte("first-value"))
	c.Put("", "bbb", []byte("second-value"))
	c.Close()

	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o666); err != nil {
		t.Fatal(err)
	}

	c2, err := Spec{Scheme: "log", Path: dir}.Open()
	if err != nil {
		t.Fatalf("torn tail must not be fatal: %v", err)
	}
	if _, ok := c2.Get("", "aaa"); !ok {
		t.Error("intact prefix record lost")
	}
	if _, ok := c2.Get("", "bbb"); ok {
		t.Error("torn record served")
	}
	c2.Put("", "ccc", []byte("third-value"))
	c2.Close()

	c3, err := Spec{Scheme: "log", Path: dir}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	for _, k := range []string{"aaa", "ccc"} {
		if _, ok := c3.Get("", k); !ok {
			t.Errorf("%s missing after post-truncation append", k)
		}
	}
}

func TestForeignLogRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("not a cache log at all"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := (Spec{Scheme: "log", Path: dir}).Open(); err == nil {
		t.Fatal("foreign file silently adopted as a cache log")
	}
}

// TestDoSingleflight launches many concurrent Do calls for one key and
// checks exactly one computes while the rest share its bytes.
func TestDoSingleflight(t *testing.T) {
	c, err := Spec{Scheme: "memory"}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	vals := make([][]byte, n)
	cachedFlags := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, cached, err := c.Do("", "k", func() ([]byte, error) {
				calls.Add(1)
				<-gate
				return []byte("computed"), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], cachedFlags[i] = v, cached
		}(i)
	}
	// Let followers pile onto the leader's flight, then release it.
	for c.Stats().Collapsed < n-1 {
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	fresh := 0
	for i := range vals {
		if string(vals[i]) != "computed" {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		if !cachedFlags[i] {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d callers reported a fresh compute, want exactly the leader", fresh)
	}
	if v, cached, _ := c.Do("", "k", func() ([]byte, error) { t.Error("recompute after fill"); return nil, nil }); !cached || string(v) != "computed" {
		t.Error("post-flight Do missed the cache")
	}
}

// TestDoErrorNotCached: a failed compute reaches every waiter but the
// next Do retries.
func TestDoErrorNotCached(t *testing.T) {
	c, err := Spec{Scheme: "memory"}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	boom := errors.New("boom")
	if _, _, err := c.Do("", "k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, cached, err := c.Do("", "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || cached || string(v) != "ok" {
		t.Fatalf("retry after error: %q %v %v", v, cached, err)
	}
}

// TestNamespaceIsolation: the same key under different namespaces is
// different entries — one tenant's cells are invisible to another —
// and the per-namespace counters track each tenant separately.
func TestNamespaceIsolation(t *testing.T) {
	for _, spec := range []string{"memory://", "log://{dir}", "pairtree://{dir}?compress=gzip"} {
		t.Run(spec, func(t *testing.T) {
			c := openSpec(t, spec, t.TempDir())
			if err := c.Put("alice", "cell", []byte("alice-result")); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get("bob", "cell"); ok {
				t.Fatal("bob read alice's cell")
			}
			if _, ok := c.Get("", "cell"); ok {
				t.Fatal("anonymous read alice's cell")
			}
			if v, ok := c.Get("alice", "cell"); !ok || string(v) != "alice-result" {
				t.Fatalf("alice's own cell: %q, %v", v, ok)
			}
			if err := c.Put("bob", "cell", []byte("bob-result")); err != nil {
				t.Fatal(err)
			}
			if v, _ := c.Get("alice", "cell"); string(v) != "alice-result" {
				t.Errorf("bob's put clobbered alice's cell: %q", v)
			}
			if v, ok := c.Get("bob", "cell"); !ok || string(v) != "bob-result" {
				t.Errorf("bob's own cell: %q, %v", v, ok)
			}
			ns := c.Namespaces()
			if ns["alice"].Hits != 2 || ns["alice"].Misses != 0 {
				t.Errorf("alice stats = %+v", ns["alice"])
			}
			if ns["bob"].Hits != 1 || ns["bob"].Misses != 1 {
				t.Errorf("bob stats = %+v", ns["bob"])
			}
		})
	}
}

// openSpec opens the spec with {dir} substituted, registering cleanup.
func openSpec(t *testing.T, spec, dir string) *Cache {
	t.Helper()
	c, err := Open(strings.Replace(spec, "{dir}", dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCodecSelfDescribing: entries written under one codec read back
// correctly through a cache configured with another — the frame
// header, not the configuration, decides how bytes are decoded. This
// is what makes compressed and plain entries impossible to confuse
// across restarts and config changes.
func TestCodecSelfDescribing(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte(`{"cycles":12345} `), 200)

	gz, err := Open("pairtree://" + dir + "?compress=gzip")
	if err != nil {
		t.Fatal(err)
	}
	if err := gz.Put("", "compressed", payload); err != nil {
		t.Fatal(err)
	}
	gz.Close()

	// Reopen with compression off: the gzip entry still decompresses,
	// and a plain entry written now coexists with it.
	plain, err := Open("pairtree://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := plain.Get("", "compressed"); !ok || !bytes.Equal(v, payload) {
		t.Fatalf("gzip entry through plain cache: ok=%v len=%d want %d", ok, len(v), len(payload))
	}
	if err := plain.Put("", "plain", payload); err != nil {
		t.Fatal(err)
	}
	plain.Close()

	// And back again with gzip on: both entries serve byte-identically.
	gz2, err := Open("pairtree://" + dir + "?compress=gzip")
	if err != nil {
		t.Fatal(err)
	}
	defer gz2.Close()
	for _, k := range []string{"compressed", "plain"} {
		if v, ok := gz2.Get("", k); !ok || !bytes.Equal(v, payload) {
			t.Errorf("%s entry through gzip cache: ok=%v len=%d", k, ok, len(v))
		}
	}
}

// TestCompressionAccounting: stored-bytes stats shrink under gzip on
// compressible payloads, and the raw side matches the payload sizes.
func TestCompressionAccounting(t *testing.T) {
	dir := t.TempDir()
	c, err := Open("log://" + dir + "?compress=gzip")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte(`{"workload":"implicit","cycles":123} `), 100)
	if err := c.Put("", "k", payload); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.BytesRaw != uint64(len(payload)) {
		t.Errorf("BytesRaw = %d, want %d", s.BytesRaw, len(payload))
	}
	if s.BytesStored == 0 || s.BytesStored >= s.BytesRaw {
		t.Errorf("gzip did not shrink: raw=%d stored=%d", s.BytesRaw, s.BytesStored)
	}
	// Byte-identical replay through the compressed store tier.
	c2, err := Open("log://" + dir + "?compress=gzip&entries=-1")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if v, ok := c2.Get("", "k"); !ok || !bytes.Equal(v, payload) {
		t.Errorf("compressed round trip: ok=%v len=%d want %d", ok, len(v), len(payload))
	}
}

// TestTTLExpiry: entries expire once the lease lapses, across both
// tiers and across restart.
func TestTTLExpiry(t *testing.T) {
	dir := t.TempDir()
	c, err := Open("pairtree://" + dir + "?ttl=1h")
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Now()
	c.now = func() time.Time { return clock }
	if err := c.Put("", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("", "k"); !ok {
		t.Fatal("fresh entry missing")
	}
	clock = clock.Add(2 * time.Hour)
	if _, ok := c.Get("", "k"); ok {
		t.Fatal("expired entry served")
	}
	if s := c.Stats(); s.Expired == 0 {
		t.Errorf("expiry not counted: %+v", s)
	}
	if n := c.Stats().StoreEntries; n != 0 {
		t.Errorf("expired entry still on the store tier (%d entries)", n)
	}
	c.Close()
}

// TestTTLRestartPurge: an entry whose lease lapses while the daemon is
// down is purged by the startup scan, not resurrected; one with a live
// lease survives the restart.
func TestTTLRestartPurge(t *testing.T) {
	dir := t.TempDir()
	c, err := Open("pairtree://" + dir + "?ttl=10ms")
	if err != nil {
		t.Fatal(err)
	}
	c.Put("", "doomed", []byte("v"))
	c.Close()
	time.Sleep(30 * time.Millisecond)

	c2, err := Open("pairtree://" + dir + "?ttl=10ms")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n := c2.Stats().StoreEntries; n != 0 {
		t.Errorf("restart resurrected %d expired entries", n)
	}

	// A live lease survives: same dir, generous TTL.
	c2.Close()
	c2b, err := Open("pairtree://" + dir + "?ttl=1h")
	if err != nil {
		t.Fatal(err)
	}
	c2b.Put("", "alive", []byte("v"))
	c2b.Close()
	c3, err := Open("pairtree://" + dir + "?ttl=1h")
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if v, ok := c3.Get("", "alive"); !ok || string(v) != "v" {
		t.Errorf("live-lease entry lost across restart: %q, %v", v, ok)
	}
}

// TestTTLExtendOnRead: reads renew the lease, so an entry read more
// often than every TTL/2 lives forever, while an unread one dies.
func TestTTLExtendOnRead(t *testing.T) {
	c, err := Open("memory://?ttl=1h")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clock := time.Now()
	c.now = func() time.Time { return clock }
	c.Put("", "read", []byte("hot"))
	c.Put("", "unread", []byte("cold"))

	// Read "read" every 45 minutes for 6 hours: each read lands past
	// the half-life, renewing the lease every time.
	for i := 0; i < 8; i++ {
		clock = clock.Add(45 * time.Minute)
		if _, ok := c.Get("", "read"); !ok {
			t.Fatalf("extended entry expired after %d reads", i)
		}
	}
	if _, ok := c.Get("", "unread"); ok {
		t.Error("unread entry outlived its lease")
	}
}
