package llc

import (
	"testing"

	"stash/internal/coh"
	"stash/internal/energy"
	"stash/internal/memdata"
	"stash/internal/noc"
	"stash/internal/sim"
	"stash/internal/stats"
)

// capture is a test component that records every packet it receives.
type capture struct {
	got []*coh.Packet
}

func (c *capture) HandlePacket(p *coh.Packet) { c.got = append(c.got, p) }

func (c *capture) byType(t coh.PacketType) []*coh.Packet {
	var out []*coh.Packet
	for _, p := range c.got {
		if p.Type == t {
			out = append(out, p)
		}
	}
	return out
}

type rig struct {
	eng   *sim.Engine
	net   *noc.Network
	mem   *memdata.Memory
	bank  *Bank
	acct  *energy.Account
	set   *stats.Set
	nodes []*coh.Router
	caps  map[[2]int]*capture // (node, comp) -> capture
}

// newRig builds a 4x4 mesh with one LLC bank at node 0 and capture
// components for L1 and stash at every node.
func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	acct := energy.NewAccount(energy.DefaultCosts())
	set := stats.NewSet()
	net := noc.New(eng, 4, 4, acct, set)
	mem := memdata.NewMemory()
	p := DefaultParams()
	bank := NewBank(eng, net, 0, p, mem, acct, set)
	r := &rig{eng: eng, net: net, mem: mem, bank: bank, acct: acct, set: set,
		caps: make(map[[2]int]*capture)}
	for n := 0; n < 16; n++ {
		router := coh.NewRouter()
		if n == 0 {
			router.Attach(coh.ToLLC, bank)
		}
		for _, comp := range []coh.Component{coh.ToL1, coh.ToStash, coh.ToDMA} {
			c := &capture{}
			r.caps[[2]int{n, int(comp)}] = c
			router.Attach(comp, c)
		}
		net.Register(n, func(m *noc.Message) { router.Deliver(m.Payload.(*coh.Packet)) })
		r.nodes = append(r.nodes, router)
	}
	return r
}

func (r *rig) cap(node int, comp coh.Component) *capture { return r.caps[[2]int{node, int(comp)}] }

func (r *rig) send(p *coh.Packet) {
	p.DstNode = 0
	p.DstComp = coh.ToLLC
	coh.Send(r.net, p)
}

func TestReadMissFetchesFromDRAM(t *testing.T) {
	r := newRig(t)
	r.mem.StoreWord(0x40, 77)
	r.send(&coh.Packet{Type: coh.ReadReq, Line: 0x40, Mask: memdata.Bit(0),
		SrcNode: 5, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	resp := r.cap(5, coh.ToL1).byType(coh.DataResp)
	if len(resp) != 1 {
		t.Fatalf("got %d DataResps, want 1", len(resp))
	}
	if resp[0].Vals[0] != 77 || resp[0].Mask != memdata.Bit(0) {
		t.Fatalf("resp vals[0]=%d mask=%v", resp[0].Vals[0], resp[0].Mask)
	}
	if r.acct.Count(energy.DRAMAccess) != 1 {
		t.Fatalf("DRAM accesses = %d, want 1", r.acct.Count(energy.DRAMAccess))
	}
}

func TestReadHitAfterFill(t *testing.T) {
	r := newRig(t)
	r.mem.StoreWord(0x40, 77)
	r.send(&coh.Packet{Type: coh.ReadReq, Line: 0x40, Mask: memdata.Bit(0),
		SrcNode: 5, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	first := r.eng.Now()
	r.send(&coh.Packet{Type: coh.ReadReq, Line: 0x40, Mask: memdata.Bit(0),
		SrcNode: 5, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	second := r.eng.Now() - first
	if second >= first {
		t.Fatalf("hit (%d cycles) not faster than miss (%d cycles)", second, first)
	}
	if r.set.Sum("llc.0.hits") != 1 || r.set.Sum("llc.0.misses") != 1 {
		t.Fatalf("hit/miss counters wrong: %v", r.set.Snapshot())
	}
}

func TestRegistrationThenForwardedRead(t *testing.T) {
	r := newRig(t)
	// Node 3's stash registers word 2 of line 0x80 with map index 7.
	r.send(&coh.Packet{Type: coh.RegReq, Line: 0x80, Mask: memdata.Bit(2),
		SrcNode: 3, SrcComp: coh.ToStash, MapIdx: 7})
	r.eng.Run()
	acks := r.cap(3, coh.ToStash).byType(coh.RegAck)
	if len(acks) != 1 {
		t.Fatalf("got %d RegAcks, want 1", len(acks))
	}
	// Node 9's L1 reads words 2 and 3: word 3 answered directly, word 2
	// forwarded to the stash owner with the recorded map index.
	r.send(&coh.Packet{Type: coh.ReadReq, Line: 0x80, Mask: memdata.Bit(2) | memdata.Bit(3),
		SrcNode: 9, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	direct := r.cap(9, coh.ToL1).byType(coh.DataResp)
	if len(direct) != 1 || direct[0].Mask != memdata.Bit(3) {
		t.Fatalf("direct resp = %+v", direct)
	}
	fwd := r.cap(3, coh.ToStash).byType(coh.FwdReadReq)
	if len(fwd) != 1 {
		t.Fatalf("got %d FwdReadReqs, want 1", len(fwd))
	}
	if fwd[0].Mask != memdata.Bit(2) || fwd[0].ReqNode != 9 || fwd[0].ReqComp != coh.ToL1 || fwd[0].MapIdx != 7 {
		t.Fatalf("forward = %+v", fwd[0])
	}
}

func TestReRegistrationInvalidatesOldOwner(t *testing.T) {
	r := newRig(t)
	r.send(&coh.Packet{Type: coh.RegReq, Line: 0x80, Mask: memdata.Bit(1),
		SrcNode: 3, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	r.send(&coh.Packet{Type: coh.RegReq, Line: 0x80, Mask: memdata.Bit(1),
		SrcNode: 4, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	inv := r.cap(3, coh.ToL1).byType(coh.OwnerInv)
	if len(inv) != 1 || inv[0].Mask != memdata.Bit(1) {
		t.Fatalf("old owner invalidations = %+v", inv)
	}
	// A read now forwards to the new owner only.
	r.send(&coh.Packet{Type: coh.ReadReq, Line: 0x80, Mask: memdata.Bit(1),
		SrcNode: 9, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	if fwd := r.cap(4, coh.ToL1).byType(coh.FwdReadReq); len(fwd) != 1 {
		t.Fatalf("forwards to new owner = %d, want 1", len(fwd))
	}
	if fwd := r.cap(3, coh.ToL1).byType(coh.FwdReadReq); len(fwd) != 0 {
		t.Fatalf("forwards to old owner = %d, want 0", len(fwd))
	}
}

func TestWritebackClearsRegistration(t *testing.T) {
	r := newRig(t)
	r.send(&coh.Packet{Type: coh.RegReq, Line: 0xc0, Mask: memdata.Bit(0),
		SrcNode: 3, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	var vals [memdata.WordsPerLine]uint32
	vals[0] = 1234
	r.send(&coh.Packet{Type: coh.WBReq, Line: 0xc0, Mask: memdata.Bit(0), Vals: vals,
		SrcNode: 3, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	if acks := r.cap(3, coh.ToL1).byType(coh.WBAck); len(acks) != 1 {
		t.Fatalf("WBAcks = %d, want 1", len(acks))
	}
	v, owner, ok := r.bank.Peek(0xc0)
	if !ok || owner != nil || v != 1234 {
		t.Fatalf("Peek = (%d, %v, %v), want (1234, nil, true)", v, owner, ok)
	}
	// A read is now answered directly.
	r.send(&coh.Packet{Type: coh.ReadReq, Line: 0xc0, Mask: memdata.Bit(0),
		SrcNode: 9, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	resp := r.cap(9, coh.ToL1).byType(coh.DataResp)
	if len(resp) != 1 || resp[0].Vals[0] != 1234 {
		t.Fatalf("read after WB = %+v", resp)
	}
}

func TestStaleWritebackDropped(t *testing.T) {
	r := newRig(t)
	// Node 3 registers, then node 4 re-registers (stealing ownership),
	// then node 3's (now stale) writeback arrives.
	r.send(&coh.Packet{Type: coh.RegReq, Line: 0xc0, Mask: memdata.Bit(0),
		SrcNode: 3, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	r.send(&coh.Packet{Type: coh.RegReq, Line: 0xc0, Mask: memdata.Bit(0),
		SrcNode: 4, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	var vals [memdata.WordsPerLine]uint32
	vals[0] = 999
	r.send(&coh.Packet{Type: coh.WBReq, Line: 0xc0, Mask: memdata.Bit(0), Vals: vals,
		SrcNode: 3, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	_, owner, ok := r.bank.Peek(0xc0)
	if !ok || owner == nil || owner.Node != 4 {
		t.Fatalf("ownership lost: owner=%v ok=%v", owner, ok)
	}
}

func TestUncachedWriteDisplacesOwner(t *testing.T) {
	r := newRig(t)
	r.send(&coh.Packet{Type: coh.RegReq, Line: 0x100, Mask: memdata.Bit(5),
		SrcNode: 3, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	var vals [memdata.WordsPerLine]uint32
	vals[5] = 55
	r.send(&coh.Packet{Type: coh.WriteReq, Line: 0x100, Mask: memdata.Bit(5), Vals: vals,
		SrcNode: 7, SrcComp: coh.ToDMA, MapIdx: -1})
	r.eng.Run()
	if inv := r.cap(3, coh.ToL1).byType(coh.OwnerInv); len(inv) != 1 {
		t.Fatalf("OwnerInvs = %d, want 1", len(inv))
	}
	v, owner, ok := r.bank.Peek(0x100 + 5*memdata.WordBytes)
	if !ok || owner != nil || v != 55 {
		t.Fatalf("Peek = (%d, %v, %v)", v, owner, ok)
	}
}

func TestEvictionWritesDirtyToDRAM(t *testing.T) {
	r := newRig(t)
	p := DefaultParams()
	// Fill one set beyond capacity. Lines mapping to set 0 of bank 0 are
	// spaced LineBytes*NumBanks*numSets apart.
	numSets := (p.BankBytes / memdata.LineBytes) / p.Ways
	stride := memdata.PAddr(memdata.LineBytes * p.NumBanks * numSets)
	// Dirty the first line via an uncached write.
	var vals [memdata.WordsPerLine]uint32
	vals[0] = 4242
	r.send(&coh.Packet{Type: coh.WriteReq, Line: 0, Mask: memdata.Bit(0), Vals: vals,
		SrcNode: 7, SrcComp: coh.ToDMA, MapIdx: -1})
	r.eng.Run()
	for i := 1; i <= p.Ways; i++ {
		r.send(&coh.Packet{Type: coh.ReadReq, Line: memdata.PAddr(i) * stride, Mask: memdata.Bit(0),
			SrcNode: 5, SrcComp: coh.ToL1, MapIdx: -1})
		r.eng.Run()
	}
	if r.set.Sum("llc.0.evictions") == 0 {
		t.Fatal("no evictions occurred")
	}
	if got := r.mem.LoadWord(0); got != 4242 {
		t.Fatalf("DRAM word 0 = %d, want 4242 (dirty eviction lost)", got)
	}
}

func TestPinnedLinesSurviveEviction(t *testing.T) {
	r := newRig(t)
	p := DefaultParams()
	numSets := (p.BankBytes / memdata.LineBytes) / p.Ways
	stride := memdata.PAddr(memdata.LineBytes * p.NumBanks * numSets)
	// Register line 0 (pins it), then stream the set.
	r.send(&coh.Packet{Type: coh.RegReq, Line: 0, Mask: memdata.Bit(0),
		SrcNode: 3, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	for i := 1; i <= 2*p.Ways; i++ {
		r.send(&coh.Packet{Type: coh.ReadReq, Line: memdata.PAddr(i) * stride, Mask: memdata.Bit(0),
			SrcNode: 5, SrcComp: coh.ToL1, MapIdx: -1})
		r.eng.Run()
	}
	_, owner, ok := r.bank.Peek(0)
	if !ok || owner == nil || owner.Node != 3 {
		t.Fatalf("pinned registration evicted: owner=%v ok=%v", owner, ok)
	}
}

func TestBankOfInterleaving(t *testing.T) {
	if BankOf(0, 16) != 0 || BankOf(64, 16) != 1 || BankOf(64*16, 16) != 0 {
		t.Fatal("BankOf interleaving wrong")
	}
}

func TestL2EnergyCharged(t *testing.T) {
	r := newRig(t)
	r.send(&coh.Packet{Type: coh.ReadReq, Line: 0x40, Mask: memdata.Bit(0),
		SrcNode: 5, SrcComp: coh.ToL1, MapIdx: -1})
	r.eng.Run()
	if r.acct.Count(energy.L2Read) != 1 || r.acct.Count(energy.L2Write) != 0 {
		t.Fatalf("L2 reads/writes = %d/%d, want 1/0", r.acct.Count(energy.L2Read), r.acct.Count(energy.L2Write))
	}
}
