// Package core implements the stash, the paper's primary contribution:
// an SRAM organization that is directly addressed and compactly stored
// like a scratchpad, yet globally addressable and visible like a cache.
//
// The hardware components follow Figure 3 of the paper:
//
//   - stash storage: data array plus per-word coherence state and
//     per-chunk (64 B) dirty/writeback bits and stash-map index;
//   - map index table: a small per-thread-block table translating the
//     map slot carried by stash instructions into a stash-map entry;
//   - stash-map: a 64-entry circular buffer of stash-to-global mappings
//     with precomputed translation factors and a #DirtyData counter;
//   - VP-map: TLB and RTLB entries with back-pointers to the last
//     stash-map entry requiring each translation.
package core

import (
	"fmt"

	"stash/internal/memdata"
)

// MapParams is the software-visible argument list of the AddMap
// intrinsic (paper Section 3.1, Figure 2):
//
//	AddMap(stashBase, globalBase, fieldSize, objectSize,
//	       rowSize, strideSize, numStrides, isCoherent)
//
// It maps a 1D or 2D (possibly strided) tile of a global array-of-
// structures field onto a dense range of stash words.
type MapParams struct {
	StashBase   int           // first stash word of the allocation
	GlobalBase  memdata.VAddr // virtual address of the field in the first object
	FieldBytes  int           // bytes of the mapped field (= object size for scalar arrays)
	ObjectBytes int           // bytes of one object in the AoS
	RowElems    int           // objects per row of the tile ("rowSize")
	StrideBytes int           // bytes between consecutive tile rows ("strideSize"), a word multiple if NumRows > 1
	NumRows     int           // rows in the tile ("numStrides")
	Coherent    bool          // Mapped Coherent vs Mapped Non-coherent (Section 3.3)
}

// Validate reports whether the parameters describe a well-formed tile.
func (m MapParams) Validate() error {
	switch {
	case m.FieldBytes <= 0 || m.FieldBytes%memdata.WordBytes != 0:
		return fmt.Errorf("core: field size %d must be a positive word multiple", m.FieldBytes)
	case m.ObjectBytes < m.FieldBytes:
		return fmt.Errorf("core: object size %d smaller than field size %d", m.ObjectBytes, m.FieldBytes)
	case m.RowElems <= 0 || m.NumRows <= 0:
		return fmt.Errorf("core: empty tile %dx%d", m.NumRows, m.RowElems)
	case m.NumRows > 1 && m.StrideBytes < m.RowElems*m.ObjectBytes:
		return fmt.Errorf("core: stride %d overlaps rows of %d objects", m.StrideBytes, m.RowElems)
	case m.NumRows > 1 && m.StrideBytes%memdata.WordBytes != 0:
		return fmt.Errorf("core: stride %d must be a word multiple", m.StrideBytes)
	case m.StashBase < 0:
		return fmt.Errorf("core: negative stash base %d", m.StashBase)
	case m.GlobalBase%memdata.WordBytes != 0 || m.ObjectBytes%memdata.WordBytes != 0:
		return fmt.Errorf("core: global base and object size must be word aligned")
	}
	return nil
}

// Words returns the number of stash words the mapping occupies.
func (m MapParams) Words() int {
	return m.NumRows * m.RowElems * (m.FieldBytes / memdata.WordBytes)
}

// VirtAddrOf translates a relative word index (0..Words()) of the tile
// into its virtual address. This is the forward half of the stash-map
// translation; the DMA engine reuses it to walk the same tiles.
func (m MapParams) VirtAddrOf(i int) memdata.VAddr {
	fieldWords := m.FieldBytes / memdata.WordBytes
	if i < 0 || i >= m.Words() {
		panic(fmt.Sprintf("core: tile word %d outside [0,%d)", i, m.Words()))
	}
	elem := i / fieldWords
	w := i % fieldWords
	row := elem / m.RowElems
	col := elem % m.RowElems
	return m.GlobalBase +
		memdata.VAddr(row*m.StrideBytes) +
		memdata.VAddr(col*m.ObjectBytes) +
		memdata.VAddr(w*memdata.WordBytes)
}

// TileWordOf is the reverse translation: the relative word index
// holding virtual address va, or ok=false when va is outside the tile.
func (m MapParams) TileWordOf(va memdata.VAddr) (int, bool) {
	if va < m.GlobalBase {
		return 0, false
	}
	fieldWords := m.FieldBytes / memdata.WordBytes
	d := int(va - m.GlobalBase)
	row, rem := 0, d
	if m.NumRows > 1 {
		row = d / m.StrideBytes
		rem = d % m.StrideBytes
	}
	if row >= m.NumRows {
		return 0, false
	}
	col := rem / m.ObjectBytes
	inObj := rem % m.ObjectBytes
	if col >= m.RowElems || inObj >= m.FieldBytes {
		return 0, false
	}
	return (row*m.RowElems+col)*fieldWords + inObj/memdata.WordBytes, true
}

// mapEntry is one stash-map entry. The translation factors are
// precomputed at AddMap time; a miss then needs only the six arithmetic
// operations the paper cites (Section 4.1.3).
type mapEntry struct {
	MapParams
	valid      bool
	active     bool // a running thread block still uses the entry
	fieldWords int
	dirtyData  int // #DirtyData: dirty chunks not yet written back
	reuseOf    int // stash-map index of a replicated older mapping, or -1
	generation uint64
}

// stashToVirt translates a stash word offset (absolute, in words) into
// the virtual address it is mapped to.
func (e *mapEntry) stashToVirt(offset int) memdata.VAddr {
	off := offset - e.StashBase
	if off < 0 || off >= e.Words() {
		panic(fmt.Sprintf("core: stash offset %d outside mapping [%d,%d)",
			offset, e.StashBase, e.StashBase+e.Words()))
	}
	return e.MapParams.VirtAddrOf(off)
}

// virtToStash is the reverse translation used for remote requests: it
// returns the absolute stash word offset holding virtual address va,
// or ok=false when va is not part of the mapped tile (e.g. a different
// field of the same object).
func (e *mapEntry) virtToStash(va memdata.VAddr) (int, bool) {
	i, ok := e.MapParams.TileWordOf(va)
	if !ok {
		return 0, false
	}
	return e.StashBase + i, true
}

// sameTile reports whether two mappings describe the identical global
// tile (the replication-detection comparison of Section 4.5).
func (m MapParams) sameTile(o MapParams) bool {
	return m.GlobalBase == o.GlobalBase &&
		m.FieldBytes == o.FieldBytes &&
		m.ObjectBytes == o.ObjectBytes &&
		m.RowElems == o.RowElems &&
		m.StrideBytes == o.StrideBytes &&
		m.NumRows == o.NumRows
}

// lineWords reverse-translates the 16 words of the virtual line at
// vline at once. soff[w] is the absolute stash offset holding word w,
// equal to virtToStash of the word's address, or -1 when the tile does
// not hold the word. Every row starts on a word (Validate), so each
// offset maps back to its word's own address. The tile position is
// found once, by division, for the first word at or past GlobalBase,
// and then stepped word by word.
func (e *mapEntry) lineWords(vline memdata.VAddr, soff *[memdata.WordsPerLine]int32) {
	w := 0
	if vline < e.GlobalBase {
		w = int(e.GlobalBase-vline) / memdata.WordBytes
	}
	for i := 0; i < w && i < memdata.WordsPerLine; i++ {
		soff[i] = -1
	}
	if w >= memdata.WordsPerLine {
		return
	}
	d := int(vline+memdata.VAddr(w*memdata.WordBytes)) - int(e.GlobalBase)
	row, rem := 0, d
	multiRow := e.NumRows > 1
	if multiRow {
		row, rem = d/e.StrideBytes, d%e.StrideBytes
	}
	col, inObj := rem/e.ObjectBytes, rem%e.ObjectBytes
	for ; w < memdata.WordsPerLine; w++ {
		if row < e.NumRows && col < e.RowElems && inObj < e.FieldBytes {
			soff[w] = int32(e.StashBase + (row*e.RowElems+col)*e.fieldWords + inObj/memdata.WordBytes)
		} else {
			soff[w] = -1
		}
		rem += memdata.WordBytes
		if multiRow && rem == e.StrideBytes {
			row++
			rem, col, inObj = 0, 0, 0
			continue
		}
		inObj += memdata.WordBytes
		if inObj >= e.ObjectBytes {
			col++
			inObj -= e.ObjectBytes
		}
	}
}

// pages returns the distinct virtual pages the mapping touches, in
// ascending order; this is what the VP-map must hold. Tile words
// ascend in address, since a row never overlaps the next, so a page is
// new exactly when it passes the last one appended. A row's fields cover
// every page between its first and last word unless the gap between two
// fields can hold a whole page; only then are the fields walked one by
// one.
func (e *mapEntry) pages() []memdata.VAddr {
	const pageMask = 4095
	var buf []memdata.VAddr
	add := func(first, last memdata.VAddr) {
		p := first &^ pageMask
		if n := len(buf); n > 0 && p <= buf[n-1] {
			p = buf[n-1] + pageMask + 1
		}
		for ; p <= last; p += pageMask + 1 {
			buf = append(buf, p)
		}
	}
	fieldLast := memdata.VAddr(e.FieldBytes - memdata.WordBytes)
	gapped := e.ObjectBytes-e.FieldBytes > pageMask
	for row := 0; row < e.NumRows; row++ {
		start := e.GlobalBase + memdata.VAddr(row*e.StrideBytes)
		if !gapped {
			add(start, start+memdata.VAddr((e.RowElems-1)*e.ObjectBytes)+fieldLast)
			continue
		}
		for col := 0; col < e.RowElems; col++ {
			f := start + memdata.VAddr(col*e.ObjectBytes)
			add(f, f+fieldLast)
		}
	}
	return buf
}
