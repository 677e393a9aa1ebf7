package memdata

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLineGeometry(t *testing.T) {
	if WordsPerLine != 16 {
		t.Fatalf("WordsPerLine = %d, want 16", WordsPerLine)
	}
	cases := []struct {
		a        PAddr
		line     PAddr
		wordIdx  int
		wordBase PAddr
	}{
		{0, 0, 0, 0},
		{4, 0, 1, 4},
		{63, 0, 15, 60},
		{64, 64, 0, 64},
		{0x1fc, 0x1c0, 15, 0x1fc},
	}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.line {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.a, got, c.line)
		}
		if got := WordIndex(c.a); got != c.wordIdx {
			t.Errorf("WordIndex(%#x) = %d, want %d", c.a, got, c.wordIdx)
		}
		if got := WordOf(c.a); got != c.wordBase {
			t.Errorf("WordOf(%#x) = %#x, want %#x", c.a, got, c.wordBase)
		}
	}
}

func TestMaskOps(t *testing.T) {
	m := Bit(0) | Bit(15)
	if !m.Has(0) || !m.Has(15) || m.Has(7) {
		t.Fatalf("mask membership wrong: %016b", m)
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d, want 2", m.Count())
	}
	if MaskAll.Count() != WordsPerLine {
		t.Fatalf("MaskAll.Count = %d, want %d", MaskAll.Count(), WordsPerLine)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	m := NewMemory()
	if v := m.LoadWord(0x100); v != 0 {
		t.Fatalf("unwritten word = %d, want 0", v)
	}
	m.StoreWord(0x100, 42)
	if v := m.LoadWord(0x100); v != 42 {
		t.Fatalf("LoadWord = %d, want 42", v)
	}
	if m.Footprint() != 1 {
		t.Fatalf("Footprint = %d, want 1", m.Footprint())
	}
}

func TestMemoryUnalignedPanics(t *testing.T) {
	m := NewMemory()
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	m.LoadWord(0x101)
}

func TestLoadLineAndStoreMasked(t *testing.T) {
	m := NewMemory()
	var vals [WordsPerLine]uint32
	for i := range vals {
		vals[i] = uint32(100 + i)
	}
	m.StoreMasked(0x40, Bit(3)|Bit(7), vals)
	line := m.LoadLine(0x40)
	for i := range line {
		want := uint32(0)
		if i == 3 || i == 7 {
			want = uint32(100 + i)
		}
		if line[i] != want {
			t.Fatalf("line[%d] = %d, want %d", i, line[i], want)
		}
	}
}

// Property: StoreMasked writes exactly the masked words and nothing else.
func TestStoreMaskedProperty(t *testing.T) {
	f := func(mask WordMask, seedVals [WordsPerLine]uint32) bool {
		mask &= MaskAll
		m := NewMemory()
		// Pre-fill with sentinel values.
		var sentinel [WordsPerLine]uint32
		for i := range sentinel {
			sentinel[i] = 0xdead0000 + uint32(i)
		}
		m.StoreMasked(0x80, MaskAll, sentinel)
		m.StoreMasked(0x80, mask, seedVals)
		line := m.LoadLine(0x80)
		for i := 0; i < WordsPerLine; i++ {
			want := sentinel[i]
			if mask.Has(i) {
				want = seedVals[i]
			}
			if line[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: WordIndex and LineOf decompose any aligned address exactly.
func TestAddressDecompositionProperty(t *testing.T) {
	f := func(a PAddr) bool {
		a = WordOf(a)
		return LineOf(a)+PAddr(WordIndex(a)*WordBytes) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// quadraticRounds is the bank-round count the scratchpad and the stash
// used before BankCounter: distinct offsets found by a quadratic scan,
// banks by modulo. It is the oracle for TestBankCounterMatchesScan.
func quadraticRounds(offsets []int, banks int) int {
	cnt := make([]int, banks)
	rounds := 1
outer:
	for i, off := range offsets {
		for _, prev := range offsets[:i] {
			if prev == off {
				continue outer
			}
		}
		b := off % banks
		cnt[b]++
		if cnt[b] > rounds {
			rounds = cnt[b]
		}
	}
	return rounds
}

// TestBankCounterMatchesScan draws warp accesses with broadcasts,
// strided and random offsets and partial warps, and requires the O(n)
// counter to agree with the quadratic scan on every one. The counter is
// reused across draws, so a mark or count left behind by one access
// would show in a later one.
func TestBankCounterMatchesScan(t *testing.T) {
	const words = 4096
	rng := rand.New(rand.NewSource(1))
	for _, banks := range []int{1, 2, 32} {
		bc := NewBankCounter(words, banks)
		for draw := 0; draw < 20000; draw++ {
			n := rng.Intn(33) // a partial warp, or none
			offsets := make([]int, n)
			base, stride := rng.Intn(words), 1+rng.Intn(40)
			for i := range offsets {
				switch rng.Intn(4) {
				case 0: // broadcast of an earlier lane's offset
					if i > 0 {
						offsets[i] = offsets[rng.Intn(i)]
						continue
					}
					offsets[i] = base
				case 1:
					offsets[i] = rng.Intn(words)
				default:
					offsets[i] = (base + i*stride) % words
				}
			}
			if got, want := bc.Rounds(offsets), quadraticRounds(offsets, banks); got != want {
				t.Fatalf("banks %d, offsets %v: Rounds = %d, scan = %d", banks, offsets, got, want)
			}
		}
	}
}

// TestMarksGenerationWrap checks that a mark from before the generation
// counter wraps cannot alias a mark after it.
func TestMarksGenerationWrap(t *testing.T) {
	m := Marks{marks: make([]uint32, 4)}
	m.Reset()
	m.Add(1)
	m.gen = ^uint32(0)
	m.Add(2)
	m.Reset() // wraps to 0: the array is cleared and the generation restarts at 1
	for i := range 4 {
		if m.Has(i) {
			t.Fatalf("offset %d still marked after the wrap", i)
		}
	}
	if !m.Add(1) || m.Add(1) {
		t.Fatal("Add after the wrap must insert once")
	}
}

func TestBankCounterRejectsNonPowerOfTwo(t *testing.T) {
	for _, banks := range []int{0, 3, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBankCounter(_, %d) did not panic", banks)
				}
			}()
			NewBankCounter(16, banks)
		}()
	}
}
