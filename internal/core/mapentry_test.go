package core

import (
	"testing"
	"testing/quick"

	"stash/internal/memdata"
)

func linearMap(stashBase int, global memdata.VAddr, n int) MapParams {
	return MapParams{
		StashBase:   stashBase,
		GlobalBase:  global,
		FieldBytes:  4,
		ObjectBytes: 4,
		RowElems:    n,
		NumRows:     1,
		Coherent:    true,
	}
}

func aosFieldMap(stashBase int, global memdata.VAddr, objBytes, n int) MapParams {
	return MapParams{
		StashBase:   stashBase,
		GlobalBase:  global,
		FieldBytes:  4,
		ObjectBytes: objBytes,
		RowElems:    n,
		NumRows:     1,
		Coherent:    true,
	}
}

func tileMap(stashBase int, global memdata.VAddr, fieldB, objB, rowElems, strideB, rows int) MapParams {
	return MapParams{
		StashBase:   stashBase,
		GlobalBase:  global,
		FieldBytes:  fieldB,
		ObjectBytes: objB,
		RowElems:    rowElems,
		StrideBytes: strideB,
		NumRows:     rows,
		Coherent:    true,
	}
}

func entryOf(m MapParams) *mapEntry {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return &mapEntry{MapParams: m, valid: true, fieldWords: m.FieldBytes / memdata.WordBytes, reuseOf: -1}
}

func TestValidate(t *testing.T) {
	if err := linearMap(0, 0x1000, 16).Validate(); err != nil {
		t.Fatalf("valid linear map rejected: %v", err)
	}
	bad := []MapParams{
		{StashBase: 0, GlobalBase: 0, FieldBytes: 0, ObjectBytes: 4, RowElems: 1, NumRows: 1},
		{StashBase: 0, GlobalBase: 0, FieldBytes: 3, ObjectBytes: 4, RowElems: 1, NumRows: 1},
		{StashBase: 0, GlobalBase: 0, FieldBytes: 8, ObjectBytes: 4, RowElems: 1, NumRows: 1},
		{StashBase: 0, GlobalBase: 0, FieldBytes: 4, ObjectBytes: 4, RowElems: 0, NumRows: 1},
		{StashBase: -1, GlobalBase: 0, FieldBytes: 4, ObjectBytes: 4, RowElems: 1, NumRows: 1},
		{StashBase: 0, GlobalBase: 0, FieldBytes: 4, ObjectBytes: 8, RowElems: 4, NumRows: 2, StrideBytes: 16},
		// The second row would start off a word boundary.
		{StashBase: 0, GlobalBase: 0x10008, FieldBytes: 4, ObjectBytes: 8, RowElems: 5, NumRows: 2, StrideBytes: 42},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid map accepted: %+v", i, m)
		}
	}
}

func TestLinearTranslation(t *testing.T) {
	e := entryOf(linearMap(32, 0x1000, 8))
	for i := 0; i < 8; i++ {
		want := memdata.VAddr(0x1000 + 4*i)
		if got := e.stashToVirt(32 + i); got != want {
			t.Fatalf("stashToVirt(%d) = %#x, want %#x", 32+i, uint64(got), uint64(want))
		}
		soff, ok := e.virtToStash(want)
		if !ok || soff != 32+i {
			t.Fatalf("virtToStash(%#x) = (%d,%v), want (%d,true)", uint64(want), soff, ok, 32+i)
		}
	}
}

func TestAoSFieldTranslation(t *testing.T) {
	// One 4-byte field of a 64-byte object: field i lives at 0x2000+64i.
	e := entryOf(aosFieldMap(0, 0x2000, 64, 10))
	for i := 0; i < 10; i++ {
		want := memdata.VAddr(0x2000 + 64*i)
		if got := e.stashToVirt(i); got != want {
			t.Fatalf("stashToVirt(%d) = %#x, want %#x", i, uint64(got), uint64(want))
		}
	}
	// Other fields of the objects are NOT mapped.
	if _, ok := e.virtToStash(0x2004); ok {
		t.Fatal("non-field word reported as mapped")
	}
	if _, ok := e.virtToStash(0x2000 + 64*10); ok {
		t.Fatal("word past the tile reported as mapped")
	}
}

func Test2DTileTranslation(t *testing.T) {
	// Figure 2: a 2D AoS tile, rows of 4 objects (16 B each, 8 B field),
	// rows separated by 256 B, 3 rows.
	e := entryOf(tileMap(64, 0x8000, 8, 16, 4, 256, 3))
	fieldWords := 2
	for row := 0; row < 3; row++ {
		for col := 0; col < 4; col++ {
			for w := 0; w < fieldWords; w++ {
				soff := 64 + (row*4+col)*fieldWords + w
				want := memdata.VAddr(0x8000 + row*256 + col*16 + w*4)
				if got := e.stashToVirt(soff); got != want {
					t.Fatalf("stashToVirt(%d) = %#x, want %#x", soff, uint64(got), uint64(want))
				}
				back, ok := e.virtToStash(want)
				if !ok || back != soff {
					t.Fatalf("virtToStash(%#x) = (%d,%v), want (%d,true)", uint64(want), back, ok, soff)
				}
			}
		}
	}
	if e.Words() != 3*4*2 {
		t.Fatalf("Words() = %d, want 24", e.Words())
	}
}

func TestOutOfRangeStashOffsetPanics(t *testing.T) {
	e := entryOf(linearMap(0, 0x1000, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range stashToVirt did not panic")
		}
	}()
	e.stashToVirt(4)
}

func TestSameTile(t *testing.T) {
	a := tileMap(0, 0x8000, 8, 16, 4, 256, 3)
	b := a
	b.StashBase = 512 // allocation differs, tile identical
	if !a.sameTile(b) {
		t.Fatal("identical tiles with different stash bases must match")
	}
	c := a
	c.GlobalBase = 0x9000
	if a.sameTile(c) {
		t.Fatal("different global bases must not match")
	}
}

func TestPagesCoverage(t *testing.T) {
	// 2 rows spaced one page apart: mapping spans exactly 2 pages.
	e := entryOf(tileMap(0, 0x10000, 4, 4, 8, 4096, 2))
	pages := e.pages()
	if len(pages) != 2 || pages[0] != 0x10000 || pages[1] != 0x11000 {
		t.Fatalf("pages = %#v", pages)
	}
}

// Property: stashToVirt and virtToStash are exact inverses over the
// whole tile, for arbitrary well-formed tiles.
func TestTranslationInverseProperty(t *testing.T) {
	f := func(fw, objW, rowE, rows, gapW uint8) bool {
		fieldWords := int(fw)%4 + 1
		objWords := fieldWords + int(objW)%8
		rowElems := int(rowE)%16 + 1
		numRows := int(rows)%4 + 1
		stride := rowElems*objWords*4 + int(gapW)%64*4
		m := MapParams{
			StashBase:   0,
			GlobalBase:  0x40000,
			FieldBytes:  fieldWords * 4,
			ObjectBytes: objWords * 4,
			RowElems:    rowElems,
			StrideBytes: stride,
			NumRows:     numRows,
			Coherent:    true,
		}
		if err := m.Validate(); err != nil {
			return false
		}
		e := entryOf(m)
		for off := 0; off < e.Words(); off++ {
			va := e.stashToVirt(off)
			back, ok := e.virtToStash(va)
			if !ok || back != off {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
