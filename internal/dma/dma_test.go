package dma

import (
	"testing"

	"stash/internal/cache"
	"stash/internal/coh"
	"stash/internal/core"
	"stash/internal/energy"
	"stash/internal/llc"
	"stash/internal/memdata"
	"stash/internal/noc"
	"stash/internal/scratch"
	"stash/internal/sim"
	"stash/internal/stats"
	"stash/internal/vm"
)

type rig struct {
	eng  *sim.Engine
	net  *noc.Network
	mem  *memdata.Memory
	as   *vm.AddressSpace
	sp   *scratch.Scratchpad
	dma  *Engine
	l1   *cache.Cache
	acct *energy.Account
	set  *stats.Set
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	acct := energy.NewAccount(energy.DefaultCosts())
	set := stats.NewSet()
	net := noc.New(eng, 4, 4, acct, set)
	mem := memdata.NewMemory()
	as := vm.NewAddressSpace()
	r := &rig{eng: eng, net: net, mem: mem, as: as, acct: acct, set: set}
	r.sp = scratch.New("d", scratch.DefaultParams(), acct, set)
	for n := 0; n < 16; n++ {
		router := coh.NewRouter()
		router.Attach(coh.ToLLC, llc.NewBank(eng, net, n, llc.DefaultParams(), mem, acct, set))
		switch n {
		case 1:
			r.dma = New(eng, net, n, "d", DefaultParams(), r.sp, as, set)
			router.Attach(coh.ToDMA, r.dma)
		case 2:
			r.l1 = cache.New(eng, net, n, "peer", cache.DefaultParams(), acct, set)
			router.Attach(coh.ToL1, r.l1)
		}
		net.Register(n, func(m *noc.Message) { router.Deliver(m.Payload.(*coh.Packet)) })
	}
	return r
}

func (r *rig) region(base memdata.VAddr, n, spBase int) core.MapParams {
	return core.MapParams{
		StashBase:   spBase,
		GlobalBase:  base,
		FieldBytes:  4,
		ObjectBytes: 4,
		RowElems:    n,
		NumRows:     1,
		Coherent:    true,
	}
}

func TestDMALoadFillsScratchpad(t *testing.T) {
	r := newRig(t)
	base := r.as.Alloc(32 * 4)
	for i := 0; i < 32; i++ {
		r.mem.StoreWord(r.as.Translate(base+memdata.VAddr(4*i)), uint32(200+i))
	}
	done := false
	r.dma.Load(r.region(base, 32, 0), func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("DMA load never completed")
	}
	for i := 0; i < 32; i++ {
		if got := r.sp.Peek(i); got != uint32(200+i) {
			t.Fatalf("scratch[%d] = %d, want %d", i, got, 200+i)
		}
	}
	if r.set.Sum("dma.d.lines") != 2 {
		t.Fatalf("DMA lines = %d, want 2", r.set.Sum("dma.d.lines"))
	}
}

func TestDMAStoreWritesGlobal(t *testing.T) {
	r := newRig(t)
	base := r.as.Alloc(16 * 4)
	for i := 0; i < 16; i++ {
		r.sp.Poke(i, uint32(300+i))
	}
	done := false
	r.dma.Store(r.region(base, 16, 0), func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("DMA store never completed")
	}
	// The data must be visible to a peer through the coherent hierarchy.
	pa := r.as.Translate(base + 4)
	line := memdata.LineOf(pa)
	var got uint32
	r.l1.Load(line, memdata.Bit(1), func(vals [memdata.WordsPerLine]uint32) { got = vals[1] })
	r.eng.Run()
	if got != 301 {
		t.Fatalf("peer read after DMA store = %d, want 301", got)
	}
}

func TestDMALoadForwardsFromOwner(t *testing.T) {
	r := newRig(t)
	base := r.as.Alloc(16 * 4)
	// Peer L1 owns word 0 with value 42.
	pa := r.as.Translate(base)
	var vals [memdata.WordsPerLine]uint32
	vals[0] = 42
	r.l1.Store(memdata.LineOf(pa), memdata.Bit(0), vals, func() {})
	r.eng.Run()
	done := false
	r.dma.Load(r.region(base, 16, 0), func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("DMA load with remote owner never completed")
	}
	if got := r.sp.Peek(0); got != 42 {
		t.Fatalf("scratch[0] = %d, want 42 (forwarded from owner)", got)
	}
}

func TestDMAChargesScratchpadEnergy(t *testing.T) {
	r := newRig(t)
	base := r.as.Alloc(16 * 4)
	r.dma.Load(r.region(base, 16, 0), func() {})
	r.eng.Run()
	if r.acct.Count(energy.ScratchAccess) == 0 {
		t.Fatal("DMA fill did not charge scratchpad accesses")
	}
	if r.acct.Count(energy.L1ReadHit)+r.acct.Count(energy.L1ReadMiss)+
		r.acct.Count(energy.L1WriteHit)+r.acct.Count(energy.L1WriteMiss) != 0 {
		t.Fatal("DMA transfer went through the L1")
	}
}

func TestDMAStridedAoSTransfersOnlyField(t *testing.T) {
	r := newRig(t)
	n := 8
	base := r.as.Alloc(n * 64)
	for i := 0; i < n; i++ {
		r.mem.StoreWord(r.as.Translate(base+memdata.VAddr(64*i)), uint32(i))
	}
	region := core.MapParams{
		StashBase: 0, GlobalBase: base,
		FieldBytes: 4, ObjectBytes: 64,
		RowElems: n, NumRows: 1, Coherent: true,
	}
	done := false
	r.dma.Load(region, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("strided DMA never completed")
	}
	for i := 0; i < n; i++ {
		if got := r.sp.Peek(i); got != uint32(i) {
			t.Fatalf("scratch[%d] = %d, want %d", i, got, i)
		}
	}
	// Only one word per line is requested; read traffic carries 8
	// single-word responses.
	if r.set.Sum("dma.d.lines") != uint64(n) {
		t.Fatalf("lines = %d, want %d", r.set.Sum("dma.d.lines"), n)
	}
}

func TestConcurrentTransfersSameLine(t *testing.T) {
	r := newRig(t)
	base := r.as.Alloc(16 * 4)
	for i := 0; i < 16; i++ {
		r.mem.StoreWord(r.as.Translate(base+memdata.VAddr(4*i)), uint32(i))
	}
	doneCount := 0
	r.dma.Load(r.region(base, 16, 0), func() { doneCount++ })
	r.dma.Load(r.region(base, 16, 64), func() { doneCount++ })
	r.eng.Run()
	if doneCount != 2 {
		t.Fatalf("completed transfers = %d, want 2", doneCount)
	}
	if r.sp.Peek(64+5) != 5 {
		t.Fatalf("second copy wrong: %d", r.sp.Peek(64+5))
	}
}
