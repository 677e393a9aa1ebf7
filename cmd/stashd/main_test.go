package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stash/internal/cellcache"
)

// TestDefaultCacheSpecIsBoundedMemory opens -cache's default value: a
// memory-only cache that keeps at most 4096 entries.
func TestDefaultCacheSpecIsBoundedMemory(t *testing.T) {
	sp, err := cellcache.ParseSpec(defaultCacheSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Scheme != "memory" || sp.Entries != 0 || sp.Bytes != 0 || sp.Fault != nil || sp.Remote != nil {
		t.Fatalf("default spec = %+v, want plain memory:// with default bounds", sp)
	}
	c, err := sp.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i <= 4096; i++ {
		if err := c.Put("public", fmt.Sprint(i), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.MemEntries != 4096 || st.Evictions != 1 || st.StoreEntries != 0 {
		t.Errorf("after 4097 puts: %d entries, %d evictions, %d stored; want 4096, 1, 0",
			st.MemEntries, st.Evictions, st.StoreEntries)
	}
}

func TestResolveShards(t *testing.T) {
	shards, err := resolveShards("http://a:1, http://b:1,,http://c:1", "")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://a:1", "http://b:1", "http://c:1"}; !reflect.DeepEqual(shards, want) {
		t.Fatalf("shards = %v, want %v", shards, want)
	}

	dir := t.TempDir()
	ring := filepath.Join(dir, "ring")
	if err := os.WriteFile(ring, []byte("# fleet\nhttp://a:1\nhttp://b:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	shards, err = resolveShards("", ring)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("ring file shards = %v", shards)
	}

	if _, err := resolveShards("http://a:1", ring); err == nil {
		t.Error("-shards and -ring together: want error")
	}
	if _, err := resolveShards("", ""); err == nil {
		t.Error("neither membership source: want error")
	}
	if _, err := resolveShards(" , ,", ""); err == nil {
		t.Error("blank -shards list: want error")
	}
}
