package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"stash/internal/cache.(*Cache).access":     "cache",
		"stash/internal/sim.(*Engine).Run.func1":   "sim",
		"runtime.mallocgc":                         "runtime",
		"internal/runtime/maps.(*Map).getWithKey":  "runtime",
		"encoding/json.(*decodeState).object":      "json",
		"net/http.(*conn).serve":                   "net",
		"net.(*netFD).Write":                       "net",
		"compress/flate.(*compressor).deflate":     "compress",
		"hash/crc32.ieeeCLMUL":                     "compress",
		"stash/internal/cellcache.(*Pairtree).Put": "cellcache",
		"syscall.Syscall":                          "",
		"internal/poll.(*FD).Fsync":                "",
		"os.(*File).Sync":                          "",
		"crypto/sha256.block":                      "other:crypto/sha256",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("layerOf(packageOf(%q)) = %q, want %q", fn, got, want)
		}
	}
}

// TestLayerShares profiles a SHA-256 loop and checks the decoded self
// time lands in its package.
func TestLayerShares(t *testing.T) {
	if testing.Short() {
		t.Skip("burns CPU for a profile")
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	pprof.StopCPUProfile()
	shares, err := layerShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range shares {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	best, bestShare := "", 0.0
	for layer, s := range shares {
		if s > bestShare {
			best, bestShare = layer, s
		}
	}
	if !strings.Contains(best, "crypto/") {
		t.Errorf("largest share is %q (%.2f), want the crypto package; shares %v", best, bestShare, shares)
	}
}
