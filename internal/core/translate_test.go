package core

import (
	"math/rand"
	"slices"
	"testing"

	"stash/internal/memdata"
)

// randTile draws a random but valid mapping from rng, biased toward the
// shapes the address walks must get right: objects of 4096 bytes or
// more, fields wider than a page, tiles that start mid-line, and rows
// close enough to share a page.
func randTile(rng *rand.Rand) MapParams {
	fieldWords := 1 + rng.Intn(4)
	if rng.Intn(8) == 0 {
		fieldWords = 1000 + rng.Intn(100) // a field that spans pages
	}
	fieldBytes := fieldWords * memdata.WordBytes
	objBytes := fieldBytes
	switch rng.Intn(3) {
	case 1:
		objBytes += memdata.WordBytes * rng.Intn(20)
	case 2:
		objBytes = max(fieldBytes, 4096+memdata.WordBytes*(rng.Intn(64)-8))
	}
	rowElems := 1 + rng.Intn(24)
	numRows := 1 + rng.Intn(8)
	stride := rowElems * objBytes
	switch rng.Intn(3) {
	case 1:
		stride += memdata.WordBytes * rng.Intn(64) // rows share a page
	case 2:
		stride += memdata.WordBytes * rng.Intn(3*1024)
	}
	for numRows > 1 && numRows*rowElems*fieldWords > 8192 {
		numRows--
	}
	for rowElems > 1 && numRows*rowElems*fieldWords > 8192 {
		rowElems--
	}
	m := MapParams{
		StashBase:   ChunkWords * rng.Intn(64),
		GlobalBase:  0x40000 + memdata.VAddr(memdata.WordBytes*rng.Intn(4096)),
		FieldBytes:  fieldBytes,
		ObjectBytes: objBytes,
		RowElems:    rowElems,
		StrideBytes: stride,
		NumRows:     numRows,
		Coherent:    true,
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// checkMapTranslate compares the stash's two address walks with their
// per-word definitions on one mapping:
//   - pages against a walk of every tile word through stashToVirt,
//     deduplicated through a map (the walk pages replaced);
//   - lineWords, for every line the tile touches and the lines on
//     either side, against virtToStash (TileWordOf) word by word.
func checkMapTranslate(t *testing.T, m MapParams) {
	t.Helper()
	e := entryOf(m)
	var want []memdata.VAddr
	seen := make(map[memdata.VAddr]bool)
	lines := make(map[memdata.VAddr]bool)
	for off := e.StashBase; off < e.StashBase+e.Words(); off++ {
		va := e.stashToVirt(off)
		if p := va &^ 4095; !seen[p] {
			seen[p] = true
			want = append(want, p)
		}
		l := memdata.VLineOf(va)
		lines[l-memdata.LineBytes], lines[l], lines[l+memdata.LineBytes] = true, true, true
	}
	if got := e.pages(); !slices.Equal(got, want) {
		t.Fatalf("%+v: pages = %#x, per-word walk = %#x", m, got, want)
	}
	var soff [memdata.WordsPerLine]int32
	for vline := range lines {
		e.lineWords(vline, &soff)
		for w := range soff {
			wa := vline + memdata.VAddr(w*memdata.WordBytes)
			off, ok := e.virtToStash(wa)
			if !ok {
				off = -1
			}
			if int(soff[w]) != off {
				t.Fatalf("%+v: line %#x word %d: lineWords = %d, virtToStash = %d", m, uint64(vline), w, soff[w], off)
			}
		}
	}
}

// FuzzMapTranslate checks the row walk of pages and the per-line
// reverse translation against their per-word oracles on random tiles.
func FuzzMapTranslate(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkMapTranslate(t, randTile(rand.New(rand.NewSource(seed))))
	})
}

// TestMapTranslateRandomTiles runs the fuzz target's check over a fixed
// set of seeded tiles and the hand-picked shapes of the other tests.
func TestMapTranslateRandomTiles(t *testing.T) {
	for _, m := range []MapParams{
		linearMap(0, 0x1000, 64),
		aosFieldMap(16, 0x2004, 64, 40),
		tileMap(64, 0x8000, 8, 16, 4, 256, 3),
		tileMap(0, 0x10000, 4, 4, 8, 4096, 2),
	} {
		checkMapTranslate(t, m)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkMapTranslate(t, randTile(rng))
	}
}
