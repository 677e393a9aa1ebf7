package core

import (
	"testing"

	"stash/internal/cache"
	"stash/internal/coh"
	"stash/internal/energy"
	"stash/internal/llc"
	"stash/internal/memdata"
	"stash/internal/noc"
	"stash/internal/sim"
	"stash/internal/stats"
	"stash/internal/vm"
)

// rig wires a stash (node 1) and a peer L1 (node 2) to LLC banks on a
// 4x4 mesh.
type rig struct {
	eng   *sim.Engine
	net   *noc.Network
	mem   *memdata.Memory
	as    *vm.AddressSpace
	stash *Stash
	l1    *cache.Cache
	acct  *energy.Account
	set   *stats.Set
}

func newRig(t *testing.T, p Params) *rig {
	t.Helper()
	eng := sim.NewEngine()
	acct := energy.NewAccount(energy.DefaultCosts())
	set := stats.NewSet()
	net := noc.New(eng, 4, 4, acct, set)
	mem := memdata.NewMemory()
	as := vm.NewAddressSpace()
	r := &rig{eng: eng, net: net, mem: mem, as: as, acct: acct, set: set}
	for n := 0; n < 16; n++ {
		router := coh.NewRouter()
		router.Attach(coh.ToLLC, llc.NewBank(eng, net, n, llc.DefaultParams(), mem, acct, set))
		switch n {
		case 1:
			r.stash = New(eng, net, n, "s", p, as, acct, set)
			router.Attach(coh.ToStash, r.stash)
		case 2:
			r.l1 = cache.New(eng, net, n, "peer", cache.DefaultParams(), acct, set)
			router.Attach(coh.ToL1, r.l1)
		}
		// Recycle each delivered packet, as the system's wiring does.
		net.Register(n, func(m *noc.Message) {
			p := m.Payload.(*coh.Packet)
			router.Deliver(p)
			net.ReleasePayload(p)
		})
	}
	return r
}

// alloc allocates a global array of n words, fills it with vals via
// DRAM, and returns the virtual base.
func (r *rig) alloc(n int, gen func(i int) uint32) memdata.VAddr {
	base := r.as.Alloc(n * 4)
	for i := 0; i < n; i++ {
		pa := r.as.Translate(base + memdata.VAddr(4*i))
		r.mem.StoreWord(pa, gen(i))
	}
	return base
}

func (r *rig) load(tb, slot int, offsets []int) []uint32 {
	var out []uint32
	// vals is a pooled buffer only valid during the callback: copy it.
	r.stash.Load(tb, slot, offsets, func(vals []uint32) { out = append([]uint32(nil), vals...) })
	r.eng.Run()
	if out == nil {
		panic("stash load never completed")
	}
	return out
}

func (r *rig) store(tb, slot int, offsets []int, vals []uint32) {
	r.stash.Store(tb, slot, offsets, vals, func() {})
	r.eng.Run()
}

// l1Read loads one word through the peer L1 (simulating another CU/CPU).
func (r *rig) l1Read(va memdata.VAddr) uint32 {
	pa := r.as.Translate(va)
	line := memdata.LineOf(pa)
	w := memdata.WordIndex(pa)
	var out uint32
	r.l1.Load(line, memdata.Bit(w), func(vals [memdata.WordsPerLine]uint32) { out = vals[w] })
	r.eng.Run()
	return out
}

func (r *rig) l1Write(va memdata.VAddr, v uint32) {
	pa := r.as.Translate(va)
	line := memdata.LineOf(pa)
	w := memdata.WordIndex(pa)
	var vals [memdata.WordsPerLine]uint32
	vals[w] = v
	r.l1.Store(line, memdata.Bit(w), vals, func() {})
	r.eng.Run()
}

func TestImplicitLoadMissThenHit(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return uint32(100 + i) })
	r.stash.AddMap(0, 0, linearMap(0, base, 16))
	got := r.load(0, 0, []int{0, 1, 2, 3})
	for i, v := range got {
		if v != uint32(100+i) {
			t.Fatalf("load[%d] = %d, want %d", i, v, 100+i)
		}
	}
	if r.set.Sum("stash.s.misses") != 1 {
		t.Fatalf("misses = %d, want 1", r.set.Sum("stash.s.misses"))
	}
	// Second access: pure hit, no further miss traffic.
	before := r.set.Sum("stash.s.miss_lines")
	r.load(0, 0, []int{0, 1, 2, 3})
	if r.set.Sum("stash.s.hits") != 1 {
		t.Fatalf("hits = %d, want 1", r.set.Sum("stash.s.hits"))
	}
	if r.set.Sum("stash.s.miss_lines") != before {
		t.Fatal("hit generated miss traffic")
	}
}

func TestCompactFillOfDenseLine(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return uint32(i) })
	r.stash.AddMap(0, 0, linearMap(0, base, 16))
	// One word misses; the whole global line's mapped words fill.
	r.load(0, 0, []int{0})
	if got := r.set.Sum("stash.s.miss_lines"); got != 1 {
		t.Fatalf("miss lines = %d, want 1", got)
	}
	for i := 0; i < 16; i++ {
		v, st := r.stash.Peek(i)
		if st != coh.Shared || v != uint32(i) {
			t.Fatalf("word %d = (%d,%v), want (%d,Shared)", i, v, st, i)
		}
	}
}

func TestAoSCompactStorageTraffic(t *testing.T) {
	// Paper Figure 1/2: only fieldX of each 64-byte object is mapped.
	// Each miss line response carries exactly one useful word.
	r := newRig(t, DefaultParams())
	n := 8
	base := r.as.Alloc(n * 64)
	for i := 0; i < n; i++ {
		r.mem.StoreWord(r.as.Translate(base+memdata.VAddr(64*i)), uint32(1000+i))
	}
	r.stash.AddMap(0, 0, aosFieldMap(0, base, 64, n))
	got := r.load(0, 0, []int{0, 1, 2, 3, 4, 5, 6, 7})
	for i, v := range got {
		if v != uint32(1000+i) {
			t.Fatalf("field[%d] = %d, want %d", i, v, 1000+i)
		}
	}
	// 8 objects on 8 distinct lines: 8 one-word responses rather than
	// 8 full-line fills; read traffic stays small and the stash holds
	// the fields compactly in 8 words.
	if got := r.set.Sum("stash.s.miss_lines"); got != 8 {
		t.Fatalf("miss lines = %d, want 8", got)
	}
	if v, st := r.stash.Peek(7); v != 1007 || st != coh.Shared {
		t.Fatalf("compact word 7 = (%d,%v)", v, st)
	}
}

func TestStoreRegistersAtLLCAndRemoteReadForwards(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return 0 })
	r.stash.AddMap(0, 0, linearMap(0, base, 16))
	r.store(0, 0, []int{3}, []uint32{333})
	if _, st := r.stash.Peek(3); st != coh.Registered {
		t.Fatalf("state after store+ack = %v, want Registered", st)
	}
	// A remote reader gets the value forwarded from the stash via the
	// RTLB + stash-map reverse translation.
	if got := r.l1Read(base + 12); got != 333 {
		t.Fatalf("remote read = %d, want 333", got)
	}
	if r.set.Sum("stash.s.remote_hits") != 1 {
		t.Fatalf("remote hits = %d, want 1", r.set.Sum("stash.s.remote_hits"))
	}
}

func TestLazyWritebackOnReallocation(t *testing.T) {
	r := newRig(t, DefaultParams())
	baseA := r.alloc(16, func(i int) uint32 { return 0 })
	baseB := r.alloc(16, func(i int) uint32 { return uint32(50 + i) })
	// TB 0 writes array A through the stash, then completes.
	r.stash.AddMap(0, 0, linearMap(0, baseA, 16))
	r.store(0, 0, []int{0, 1}, []uint32{11, 22})
	r.stash.EndThreadBlock(0)
	r.stash.SelfInvalidate()
	if r.set.Sum("stash.s.writebacks") != 0 {
		t.Fatal("writeback happened eagerly at thread-block end")
	}
	// TB 1 maps array B over the same stash space: the first touch
	// triggers the lazy writeback of A's dirty chunk.
	r.stash.AddMap(1, 0, linearMap(0, baseB, 16))
	got := r.load(1, 0, []int{0, 1})
	if got[0] != 50 || got[1] != 51 {
		t.Fatalf("B load = %v, want [50 51]", got)
	}
	if r.set.Sum("stash.s.writebacks") == 0 {
		t.Fatal("no lazy writeback on reallocation")
	}
	// A's values are now globally visible.
	if v := r.l1Read(baseA); v != 11 {
		t.Fatalf("A[0] after lazy WB = %d, want 11", v)
	}
	if v := r.l1Read(baseA + 4); v != 22 {
		t.Fatalf("A[1] after lazy WB = %d, want 22", v)
	}
}

func TestCrossKernelReuseHitsWithoutTraffic(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(32, func(i int) uint32 { return uint32(i) })
	// Kernel 1, TB 0: load and update the data.
	r.stash.AddMap(0, 0, linearMap(0, base, 32))
	r.load(0, 0, []int{0, 1, 2, 3})
	r.store(0, 0, []int{0, 1, 2, 3}, []uint32{9, 8, 7, 6})
	r.stash.EndThreadBlock(0)
	r.stash.SelfInvalidate()
	missLines := r.set.Sum("stash.s.miss_lines")

	// Kernel 2, TB 1: same mapping. Replication detection reuses the
	// entry; registered data is still resident -> all hits, no traffic.
	r.stash.AddMap(1, 0, linearMap(0, base, 32))
	got := r.load(1, 0, []int{0, 1, 2, 3})
	if got[0] != 9 || got[3] != 6 {
		t.Fatalf("reuse load = %v", got)
	}
	if r.set.Sum("stash.s.miss_lines") != missLines {
		t.Fatal("cross-kernel reuse generated new global traffic")
	}
	if r.set.Sum("stash.s.map_reuse") != 1 {
		t.Fatalf("map_reuse = %d, want 1", r.set.Sum("stash.s.map_reuse"))
	}
}

func TestReplicationDisabledForcesRefetch(t *testing.T) {
	p := DefaultParams()
	p.EnableReplication = false
	r := newRig(t, p)
	base := r.alloc(32, func(i int) uint32 { return uint32(i) })
	r.stash.AddMap(0, 0, linearMap(0, base, 32))
	r.load(0, 0, []int{0, 1, 2, 3})
	r.stash.EndThreadBlock(0)
	r.stash.SelfInvalidate()
	missLines := r.set.Sum("stash.s.miss_lines")
	r.stash.AddMap(1, 0, linearMap(0, base, 32))
	r.load(1, 0, []int{0, 1, 2, 3})
	if r.set.Sum("stash.s.miss_lines") <= missLines {
		t.Fatal("with replication off, remapping must refetch")
	}
}

func TestReplicationCopyAcrossAllocations(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return uint32(600 + i) })
	// TB 0 maps the data at stash 0 and loads it.
	r.stash.AddMap(0, 0, linearMap(0, base, 16))
	r.load(0, 0, []int{0, 1, 2, 3})
	// TB 1 maps the same global data at a different stash allocation:
	// load misses are satisfied by intra-stash copies, not the network.
	before := r.set.Sum("stash.s.miss_lines")
	r.stash.AddMap(1, 0, linearMap(64, base, 16))
	got := r.load(1, 0, []int{64, 65})
	if got[0] != 600 || got[1] != 601 {
		t.Fatalf("replicated load = %v", got)
	}
	if r.set.Sum("stash.s.miss_lines") != before {
		t.Fatal("replication copy still went to the network")
	}
	if r.set.Sum("stash.s.replication_copies") != 2 {
		t.Fatalf("replication copies = %d, want 2", r.set.Sum("stash.s.replication_copies"))
	}
}

func TestNonCoherentStoresStayLocal(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return uint32(i) })
	m := linearMap(0, base, 16)
	m.Coherent = false
	r.stash.AddMap(0, 0, m)
	r.store(0, 0, []int{0}, []uint32{777})
	// No registration traffic, and the global copy is unchanged.
	if r.set.Sum("noc.flit_hops.write") != 0 {
		t.Fatal("non-coherent store produced registration traffic")
	}
	r.stash.EndThreadBlock(0)
	r.stash.WritebackAll()
	r.eng.Run()
	if got := r.l1Read(base); got != 0 {
		t.Fatalf("global copy = %d, want 0 (non-coherent writes invisible)", got)
	}
}

func TestChgMapCoherentToNonCoherentWritesBack(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return 0 })
	m := linearMap(0, base, 16)
	r.stash.AddMap(0, 0, m)
	r.store(0, 0, []int{0}, []uint32{42})
	m.Coherent = false
	r.stash.ChgMap(0, 0, m)
	r.eng.Run()
	if got := r.l1Read(base); got != 42 {
		t.Fatalf("value after coherent->non-coherent ChgMap = %d, want 42", got)
	}
}

func TestChgMapNonCoherentToCoherentRegisters(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return 0 })
	m := linearMap(0, base, 16)
	m.Coherent = false
	r.stash.AddMap(0, 0, m)
	r.store(0, 0, []int{2}, []uint32{55})
	m.Coherent = true
	r.stash.ChgMap(0, 0, m)
	r.eng.Run()
	// The locally dirty word is now registered: remote reads see it.
	if got := r.l1Read(base + 8); got != 55 {
		t.Fatalf("remote read after non-coherent->coherent = %d, want 55", got)
	}
}

func TestEagerWritebackAblation(t *testing.T) {
	p := DefaultParams()
	p.EagerWriteback = true
	r := newRig(t, p)
	base := r.alloc(16, func(i int) uint32 { return 0 })
	r.stash.AddMap(0, 0, linearMap(0, base, 16))
	r.store(0, 0, []int{0}, []uint32{5})
	r.stash.EndThreadBlock(0)
	r.stash.SelfInvalidate() // eager mode: flushes now
	r.eng.Run()
	if r.set.Sum("stash.s.writebacks") == 0 {
		t.Fatal("eager mode did not write back at kernel end")
	}
}

func TestDirtyDataCounterAndEntryInvalidation(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(32, func(i int) uint32 { return 0 })
	idx := r.stash.AddMap(0, 0, linearMap(0, base, 32))
	r.store(0, 0, []int{0, 16}, []uint32{1, 2}) // two distinct chunks
	if _, dd := r.stash.MapEntryInfo(idx); dd != 2 {
		t.Fatalf("#DirtyData = %d, want 2", dd)
	}
	r.stash.EndThreadBlock(0)
	r.stash.WritebackAll()
	r.eng.Run()
	valid, dd := r.stash.MapEntryInfo(idx)
	if dd != 0 {
		t.Fatalf("#DirtyData after flush = %d, want 0", dd)
	}
	if valid {
		t.Fatal("entry still valid after all dirty data written back (paper: marked invalid)")
	}
}

func TestOwnerInvFromPeerWrite(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return 0 })
	r.stash.AddMap(0, 0, linearMap(0, base, 16))
	r.store(0, 0, []int{0}, []uint32{10})
	r.stash.EndThreadBlock(0)
	// Peer core writes the same word in the next phase: the stash's
	// registration is stolen and its copy invalidated.
	r.l1Write(base, 20)
	r.l1.Drain(func() {})
	r.eng.Run()
	if _, st := r.stash.Peek(0); st != coh.Invalid {
		t.Fatalf("stash word state after peer registration = %v, want Invalid", st)
	}
}

func TestMixedHitMissLoad(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(64, func(i int) uint32 { return uint32(i) })
	r.stash.AddMap(0, 0, linearMap(0, base, 64))
	r.load(0, 0, []int{0}) // fills line 0 words
	got := r.load(0, 0, []int{1, 20})
	if got[0] != 1 || got[1] != 20 {
		t.Fatalf("mixed load = %v, want [1 20]", got)
	}
}

func TestBankConflictLatency(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(128, func(i int) uint32 { return uint32(i) })
	r.stash.AddMap(0, 0, linearMap(0, base, 128))
	r.load(0, 0, []int{0}) // warm line 0
	r.load(0, 0, []int{64})
	start := r.eng.Now()
	var doneAt sim.Cycle
	// Offsets 0, 32, 64 share bank 0 (32 banks): 3 rounds.
	r.stash.Load(0, 0, []int{0, 32, 64}, func([]uint32) { doneAt = r.eng.Now() })
	r.eng.Run()
	if doneAt-start < 3 {
		t.Fatalf("3-way conflict completed in %d cycles, want >= 3", doneAt-start)
	}
	_ = start
}

func TestDrainWaitsForRegistrations(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return 0 })
	r.stash.AddMap(0, 0, linearMap(0, base, 16))
	drained := false
	r.stash.Store(0, 0, []int{0}, []uint32{1}, func() {})
	r.stash.Drain(func() { drained = true })
	if drained {
		t.Fatal("drained before registration completed")
	}
	r.eng.Run()
	if !drained {
		t.Fatal("never drained")
	}
}

func TestMapIndexTableLimit(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("slot beyond SlotsPerTB did not panic")
		}
	}()
	r.stash.AddMap(0, 4, linearMap(0, base, 16))
}

func TestUnalignedStashBasePanics(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned stash base did not panic")
		}
	}()
	r.stash.AddMap(0, 0, linearMap(3, base, 8))
}

func TestStashMapCircularReplacementFlushesOldDirty(t *testing.T) {
	p := DefaultParams()
	p.MapEntries = 2 // force rapid wraparound
	p.EnableReplication = false
	r := newRig(t, p)
	baseA := r.alloc(16, func(i int) uint32 { return 0 })
	baseB := r.alloc(16, func(i int) uint32 { return 0 })
	baseC := r.alloc(16, func(i int) uint32 { return 0 })
	r.stash.AddMap(0, 0, linearMap(0, baseA, 16))
	r.store(0, 0, []int{0}, []uint32{71})
	r.stash.EndThreadBlock(0)
	// Two more AddMaps wrap the 2-entry circular buffer; A's entry is
	// replaced, so its dirty data must be written back (Section 4.2).
	r.stash.AddMap(1, 0, linearMap(64, baseB, 16))
	r.stash.AddMap(1, 1, linearMap(128, baseC, 16))
	r.eng.Run()
	if got := r.l1Read(baseA); got != 71 {
		t.Fatalf("A[0] after stash-map replacement = %d, want 71", got)
	}
}

func TestEnergyEvents(t *testing.T) {
	r := newRig(t, DefaultParams())
	base := r.alloc(16, func(i int) uint32 { return uint32(i) })
	r.stash.AddMap(0, 0, linearMap(0, base, 16))
	r.load(0, 0, []int{0, 1})
	if r.acct.Count(energy.StashMiss) != 1 {
		t.Fatalf("stash miss events = %d, want 1", r.acct.Count(energy.StashMiss))
	}
	// The one fill installs its words in a single array write.
	if r.acct.Count(energy.StashWrite) != 1 {
		t.Fatalf("stash write events = %d, want 1 (fill install)", r.acct.Count(energy.StashWrite))
	}
	r.load(0, 0, []int{0, 1})
	if r.acct.Count(energy.StashRead) == 0 {
		t.Fatal("no stash read energy charged for the hit")
	}
	// Hits never touch the TLB (direct addressing) — only the single
	// miss line did.
	if r.acct.Count(energy.TLBAccess) != 1 {
		t.Fatalf("TLB events = %d, want 1 (miss only)", r.acct.Count(energy.TLBAccess))
	}
}
