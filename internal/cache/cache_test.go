package cache

import (
	"testing"

	"stash/internal/coh"
	"stash/internal/energy"
	"stash/internal/llc"
	"stash/internal/memdata"
	"stash/internal/noc"
	"stash/internal/sim"
	"stash/internal/stats"
)

// rig wires two L1 caches (nodes 1 and 2) to a full set of LLC banks on
// a 4x4 mesh, backed by DRAM.
type rig struct {
	eng  *sim.Engine
	net  *noc.Network
	mem  *memdata.Memory
	a, b *Cache
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
	r := &rig{eng: eng, net: net, mem: mem, acct: acct, set: set}
	for n := 0; n < 16; n++ {
		router := coh.NewRouter()
		router.Attach(coh.ToLLC, llc.NewBank(eng, net, n, llc.DefaultParams(), mem, acct, set))
		switch n {
		case 1:
			r.a = New(eng, net, n, "a", DefaultParams(), acct, set)
			router.Attach(coh.ToL1, r.a)
		case 2:
			r.b = New(eng, net, n, "b", DefaultParams(), acct, set)
			router.Attach(coh.ToL1, r.b)
		}
		net.Register(n, func(m *noc.Message) { router.Deliver(m.Payload.(*coh.Packet)) })
	}
	return r
}

// load synchronously loads one word through cache c.
func (r *rig) load(c *Cache, addr memdata.PAddr) uint32 {
	line := memdata.LineOf(addr)
	w := memdata.WordIndex(addr)
	var out uint32
	doneFlag := false
	c.Load(line, memdata.Bit(w), func(vals [memdata.WordsPerLine]uint32) {
		out = vals[w]
		doneFlag = true
	})
	r.eng.Run()
	if !doneFlag {
		panic("load never completed")
	}
	return out
}

// store synchronously stores one word through cache c and drains.
func (r *rig) store(c *Cache, addr memdata.PAddr, v uint32) {
	line := memdata.LineOf(addr)
	w := memdata.WordIndex(addr)
	var vals [memdata.WordsPerLine]uint32
	vals[w] = v
	c.Store(line, memdata.Bit(w), vals, func() {})
	r.eng.Run()
}

func TestLoadMissThenHit(t *testing.T) {
	r := newRig(t)
	r.mem.StoreWord(0x1040, 321)
	if got := r.load(r.a, 0x1040); got != 321 {
		t.Fatalf("miss load = %d, want 321", got)
	}
	if got := r.load(r.a, 0x1040); got != 321 {
		t.Fatalf("hit load = %d, want 321", got)
	}
	if r.set.Sum("l1.a.misses") != 1 || r.set.Sum("l1.a.hits") != 1 {
		t.Fatalf("hit/miss = %d/%d, want 1/1",
			r.set.Sum("l1.a.hits"), r.set.Sum("l1.a.misses"))
	}
}

func TestStoreRegistersAndIsReadableLocally(t *testing.T) {
	r := newRig(t)
	r.store(r.a, 0x2000, 7)
	v, st, ok := r.a.Peek(0x2000)
	if !ok || v != 7 || st != coh.Registered {
		t.Fatalf("Peek = (%d, %v, %v), want (7, Registered, true)", v, st, ok)
	}
	if got := r.load(r.a, 0x2000); got != 7 {
		t.Fatalf("own store read = %d, want 7", got)
	}
}

func TestRemoteReadForwardsToOwner(t *testing.T) {
	r := newRig(t)
	r.store(r.a, 0x3000, 99)
	// b reads the word a owns: LLC forwards, a answers with its value.
	if got := r.load(r.b, 0x3000); got != 99 {
		t.Fatalf("remote read = %d, want 99", got)
	}
	if r.set.Sum("l1.a.remote_hits") != 1 {
		t.Fatalf("remote hits at owner = %d, want 1", r.set.Sum("l1.a.remote_hits"))
	}
}

func TestSelfInvalidateDropsSharedKeepsRegistered(t *testing.T) {
	r := newRig(t)
	r.mem.StoreWord(0x4000, 5)
	r.load(r.a, 0x4000)     // Shared
	r.store(r.a, 0x4004, 6) // Registered, same line
	r.a.SelfInvalidate()
	if _, st, _ := r.a.Peek(0x4000); st != coh.Invalid {
		t.Fatalf("shared word state after self-inv = %v, want Invalid", st)
	}
	if _, st, _ := r.a.Peek(0x4004); st != coh.Registered {
		t.Fatalf("registered word state after self-inv = %v, want Registered", st)
	}
}

func TestSelfInvalidatePicksUpRemoteUpdate(t *testing.T) {
	r := newRig(t)
	r.mem.StoreWord(0x5000, 1)
	if got := r.load(r.b, 0x5000); got != 1 {
		t.Fatalf("initial = %d", got)
	}
	r.store(r.a, 0x5000, 2) // a registers the word; b's copy is stale
	// b self-invalidates at the synchronization point, then re-reads.
	r.b.SelfInvalidate()
	if got := r.load(r.b, 0x5000); got != 2 {
		t.Fatalf("post-sync read = %d, want 2", got)
	}
}

func TestEvictionWritesBackAndDataSurvives(t *testing.T) {
	r := newRig(t)
	p := DefaultParams()
	numSets := p.SizeBytes / memdata.LineBytes / p.Ways
	stride := memdata.PAddr(numSets * memdata.LineBytes)
	r.store(r.a, 0x8000, 77)
	// Stream enough conflicting lines to evict 0x8000.
	for i := 1; i <= p.Ways+1; i++ {
		r.load(r.a, 0x8000+memdata.PAddr(i)*stride)
	}
	if r.set.Sum("l1.a.writebacks") == 0 {
		t.Fatal("no writebacks on eviction")
	}
	// The value must be visible to the other core via the LLC.
	if got := r.load(r.b, 0x8000); got != 77 {
		t.Fatalf("post-eviction remote read = %d, want 77", got)
	}
}

func TestDrainWaitsForRegistration(t *testing.T) {
	r := newRig(t)
	var vals [memdata.WordsPerLine]uint32
	vals[0] = 9
	drained := false
	r.a.Store(0x9000, memdata.Bit(0), vals, func() {})
	r.a.Drain(func() { drained = true })
	if drained {
		t.Fatal("drained before registration ack")
	}
	r.eng.Run()
	if !drained {
		t.Fatal("never drained")
	}
	if _, st, _ := r.a.Peek(0x9000); st != coh.Registered {
		t.Fatalf("state after drain = %v, want Registered", st)
	}
}

func TestPartialLineMiss(t *testing.T) {
	r := newRig(t)
	r.mem.StoreWord(0xa000, 1)
	r.mem.StoreWord(0xa004, 2)
	r.load(r.a, 0xa000)
	// Second word of the same line: partial miss (word-granularity).
	if got := r.load(r.a, 0xa004); got != 2 {
		t.Fatalf("partial-line load = %d, want 2", got)
	}
}

func TestConcurrentMissesMerge(t *testing.T) {
	r := newRig(t)
	r.mem.StoreWord(0xb000, 11)
	line := memdata.LineOf(memdata.PAddr(0xb000))
	count := 0
	for i := 0; i < 4; i++ {
		r.a.Load(line, memdata.Bit(0), func(vals [memdata.WordsPerLine]uint32) {
			if vals[0] == 11 {
				count++
			}
		})
	}
	r.eng.Run()
	if count != 4 {
		t.Fatalf("completed loads = %d, want 4", count)
	}
	// All four merged into a single LLC read.
	var llcReads uint64
	for n := 0; n < 16; n++ {
		llcReads += r.set.Sum("llc.") // counts everything; use misses below
	}
	if r.set.Sum("l1.a.misses") != 4 {
		t.Fatalf("l1 misses = %d, want 4 (all counted)", r.set.Sum("l1.a.misses"))
	}
}

func TestWritebackAllMakesDataGloballyVisible(t *testing.T) {
	r := newRig(t)
	r.store(r.a, 0xc000, 13)
	r.a.WritebackAll()
	r.eng.Run()
	if got := r.load(r.b, 0xc000); got != 13 {
		t.Fatalf("read after WritebackAll = %d, want 13", got)
	}
	if _, _, ok := r.a.Peek(0xc000); ok {
		t.Fatal("line still present after WritebackAll")
	}
}

func TestEnergyChargedPerTransaction(t *testing.T) {
	r := newRig(t)
	r.mem.StoreWord(0xd000, 1)
	r.load(r.a, 0xd000)
	r.load(r.a, 0xd000)
	if got := r.acct.Count(energy.L1ReadMiss); got != 1 {
		t.Fatalf("L1 read miss energy events = %d, want 1", got)
	}
	if got := r.acct.Count(energy.L1ReadHit); got != 1 {
		t.Fatalf("L1 read hit energy events = %d, want 1", got)
	}
	if got := r.acct.Count(energy.TLBAccess); got != 2 {
		t.Fatalf("TLB events = %d, want 2", got)
	}
}

func TestNoEnergyWhenDisabled(t *testing.T) {
	eng := sim.NewEngine()
	acct := energy.NewAccount(energy.DefaultCosts())
	set := stats.NewSet()
	net := noc.New(eng, 4, 4, acct, set)
	mem := memdata.NewMemory()
	p := DefaultParams()
	p.ChargeEnergy = false
	var c *Cache
	for n := 0; n < 16; n++ {
		router := coh.NewRouter()
		router.Attach(coh.ToLLC, llc.NewBank(eng, net, n, llc.DefaultParams(), mem, acct, set))
		if n == 1 {
			c = New(eng, net, n, "cpu", p, acct, set)
			router.Attach(coh.ToL1, c)
		}
		net.Register(n, func(m *noc.Message) { router.Deliver(m.Payload.(*coh.Packet)) })
	}
	c.Load(0, memdata.Bit(0), func([memdata.WordsPerLine]uint32) {})
	eng.Run()
	if acct.Count(energy.L1ReadMiss) != 0 || acct.Count(energy.TLBAccess) != 0 {
		t.Fatal("CPU L1 charged energy despite ChargeEnergy=false")
	}
	if acct.Count(energy.NoCFlitHop) == 0 {
		t.Fatal("CPU L1 NoC traffic must still be charged (paper Section 5.2)")
	}
}

// stubRig is one L1 whose LLC side is played by the test: the requests
// the cache sends are dropped, and responses are injected by hand, so a
// test decides exactly when MSHRs retire and registrations complete.
type stubRig struct {
	eng *sim.Engine
	c   *Cache
	set *stats.Set
}

func newStubRig(t *testing.T, p Params) *stubRig {
	t.Helper()
	eng := sim.NewEngine()
	acct := energy.NewAccount(energy.DefaultCosts())
	set := stats.NewSet()
	net := noc.New(eng, 4, 4, acct, set)
	for n := 0; n < 16; n++ {
		net.Register(n, func(*noc.Message) {})
	}
	return &stubRig{eng: eng, c: New(eng, net, 1, "a", p, acct, set), set: set}
}

// fill answers line's outstanding read with every word (value = index).
func (r *stubRig) fill(line memdata.PAddr) {
	var vals [memdata.WordsPerLine]uint32
	for i := range vals {
		vals[i] = uint32(i)
	}
	r.c.HandlePacket(&coh.Packet{Type: coh.DataResp, Line: line, Mask: memdata.MaskAll, Vals: vals})
}

// ack completes line's registration of word 0.
func (r *stubRig) ack(line memdata.PAddr) {
	r.c.HandlePacket(&coh.Packet{Type: coh.RegAck, Line: line, Mask: memdata.Bit(0)})
}

func (r *stubRig) load(line memdata.PAddr, done *bool) {
	r.c.Load(line, memdata.Bit(0), func([memdata.WordsPerLine]uint32) {
		if done != nil {
			*done = true
		}
	})
}

func (r *stubRig) store(line memdata.PAddr, done func()) {
	var vals [memdata.WordsPerLine]uint32
	if done == nil {
		done = func() {}
	}
	r.c.Store(line, memdata.Bit(0), vals, done)
}

// conflicting returns the i-th line address mapping to set 0.
func conflicting(p Params, i int) memdata.PAddr {
	numSets := p.SizeBytes / memdata.LineBytes / p.Ways
	return memdata.PAddr(i * numSets * memdata.LineBytes)
}

// other returns a line in set 1+i, away from set 0.
func other(i int) memdata.PAddr { return memdata.PAddr((1 + i) * memdata.LineBytes) }

// fillSetWithOwnedLines makes every way of set 0 a Registered line, so
// an eviction there would have to write back.
func (r *stubRig) fillSetWithOwnedLines(p Params) {
	for i := 0; i < p.Ways; i++ {
		r.store(conflicting(p, i), nil)
		r.eng.Run()
		r.ack(conflicting(p, i))
	}
}

// set0 snapshots set 0's tags and LRU stamps.
func (r *stubRig) set0() ([]memdata.PAddr, []uint64) {
	s := &r.c.sets[0]
	return append([]memdata.PAddr(nil), s.addrs...), append([]uint64(nil), s.stamp...)
}

func (r *stubRig) requireSet0(t *testing.T, addrs []memdata.PAddr, stamps []uint64) {
	t.Helper()
	a, s := r.set0()
	for i := range addrs {
		if a[i] != addrs[i] || s[i] != stamps[i] {
			t.Fatalf("set 0 way %d: line %#x stamp %d, want line %#x stamp %d", i, a[i], s[i], addrs[i], stamps[i])
		}
	}
}

func smallParams(mshrs int) Params {
	p := DefaultParams()
	p.MSHRs = mshrs
	return p
}

// With every MSHR busy, a load to an absent line is a reservation fail:
// it evicts nothing, writes nothing back and refreshes no stamp while it
// waits, then issues normally once an MSHR retires.
func TestReservationFailLoadTouchesNothing(t *testing.T) {
	p := smallParams(2)
	r := newStubRig(t, p)
	r.fillSetWithOwnedLines(p)
	r.load(other(0), nil)
	r.load(other(1), nil)
	r.eng.Run()
	addrs, stamps := r.set0()
	out := r.c.Outstanding()

	var done bool
	r.load(conflicting(p, p.Ways), &done)
	r.eng.RunFor(40)
	if n := r.set.Sum("l1.a.evictions"); n != 0 {
		t.Fatalf("stalled load evicted %d lines", n)
	}
	if n := r.set.Sum("l1.a.writebacks"); n != 0 {
		t.Fatalf("stalled load wrote back %d lines", n)
	}
	r.requireSet0(t, addrs, stamps)
	if got := r.c.Outstanding(); got != out+1 {
		t.Fatalf("Outstanding = %d while the load waits, want %d (reservation fails are counted)", got, out+1)
	}

	r.fill(other(0))
	r.eng.RunFor(8)
	if r.set.Sum("l1.a.evictions") != 1 || r.set.Sum("l1.a.writebacks") != 1 {
		t.Fatalf("after an MSHR retired: evictions %d writebacks %d, want 1 and 1",
			r.set.Sum("l1.a.evictions"), r.set.Sum("l1.a.writebacks"))
	}
	r.fill(conflicting(p, p.Ways))
	r.eng.Run()
	if !done {
		t.Fatal("stalled load never completed")
	}
}

// With the registration buffer full, a store to an absent line waits
// the same way: no eviction, no writeback, no stamp refreshed.
func TestReservationFailStoreTouchesNothing(t *testing.T) {
	p := smallParams(2)
	r := newStubRig(t, p)
	r.fillSetWithOwnedLines(p)
	r.store(other(0), nil)
	r.store(other(1), nil)
	r.eng.Run()
	addrs, stamps := r.set0()

	done := false
	r.store(conflicting(p, p.Ways), func() { done = true })
	r.eng.RunFor(40)
	if n := r.set.Sum("l1.a.evictions"); n != 0 {
		t.Fatalf("stalled store evicted %d lines", n)
	}
	if n := r.set.Sum("l1.a.writebacks"); n != 0 {
		t.Fatalf("stalled store wrote back %d lines", n)
	}
	r.requireSet0(t, addrs, stamps)
	if done {
		t.Fatal("stalled store was accepted")
	}

	r.ack(other(0))
	r.eng.RunFor(8)
	if !done || r.set.Sum("l1.a.evictions") != 1 || r.set.Sum("l1.a.writebacks") != 1 {
		t.Fatalf("after a registration completed: accepted %v evictions %d writebacks %d, want true, 1, 1",
			done, r.set.Sum("l1.a.evictions"), r.set.Sum("l1.a.writebacks"))
	}
}

// A load that misses on a resident line with no MSHR to merge into, and
// none free, stalls without refreshing that line's LRU stamp.
func TestReservationFailLeavesResidentStamp(t *testing.T) {
	p := smallParams(2)
	r := newStubRig(t, p)
	line := conflicting(p, 0)
	r.load(line, nil) // word 0 ...
	r.fill(line)      // ... now Shared
	r.c.SelfInvalidate()
	r.eng.Run()
	r.load(other(0), nil)
	r.load(other(1), nil)
	r.eng.Run()
	addrs, stamps := r.set0()

	var done bool
	r.load(line, &done) // word 0 is Invalid again: a miss needing an MSHR
	r.eng.RunFor(40)
	r.requireSet0(t, addrs, stamps)
	if r.c.peekLine(line).mshr != nil {
		t.Fatal("stalled load took an MSHR")
	}
	r.fill(other(0))
	r.eng.RunFor(8)
	r.fill(line)
	r.eng.Run()
	if !done {
		t.Fatal("stalled load never completed")
	}
}

// Parked accesses keep their own 4-cycle phase and their order: when an
// MSHR frees, the earliest-parked access at the next poll takes it.
func TestParkedAccessesIssueInOrderAtTheirPhase(t *testing.T) {
	p := smallParams(2)
	r := newStubRig(t, p)
	a0, a1 := other(0), other(1)
	b, b2, c := other(2), other(3), other(4)
	r.load(a0, nil)
	r.load(a1, nil)
	r.eng.At(1, func() { r.load(b, nil); r.load(b2, nil) }) // polls at 5, 9, 13, ...
	r.eng.At(2, func() { r.load(c, nil) })                  // polls at 6, 10, 14, ...
	r.eng.At(11, func() { r.fill(a0) })                     // b, first in its run, takes it at 13
	r.eng.At(19, func() { r.fill(a1) })                     // b2 takes the next at 21
	r.eng.At(27, func() { r.fill(b) })                      // c takes the last at 30
	born := func(name string, line memdata.PAddr, want sim.Cycle) {
		t.Helper()
		m := r.c.mshrs[line]
		if m == nil {
			t.Fatalf("%s has not issued by cycle %d", name, r.eng.Now())
		}
		if m.born != want {
			t.Errorf("%s issued at cycle %d, want %d", name, m.born, want)
		}
	}
	r.eng.RunUntil(26)
	born("b", b, 13)
	born("b2", b2, 21)
	if r.c.mshrs[c] != nil {
		t.Fatal("c issued while both MSHRs were busy")
	}
	r.eng.RunUntil(40)
	born("c", c, 30)
}

// A load waiting for an MSHR stops waiting when a store makes its words
// readable: it then hits, though every MSHR is still busy.
func TestParkedLoadHitsAfterStoreToItsLine(t *testing.T) {
	p := smallParams(2)
	r := newStubRig(t, p)
	r.load(other(0), nil) // both MSHRs busy for good
	r.load(other(1), nil)
	x := other(2)
	var done bool
	r.load(x, &done)                        // parks: no MSHR; polls at 4, 8, ...
	r.eng.At(2, func() { r.store(x, nil) }) // word 0 becomes PendingReg, so readable
	r.eng.RunUntil(4 + p.HitLat)
	if !done {
		t.Fatal("the parked load did not hit on the word a store made readable")
	}
	if r.c.mshrs[x] != nil {
		t.Fatal("the load took an MSHR for a word it could read")
	}
}

// A fill that makes a parked load's words readable wakes it as a store
// does, though every MSHR is still busy: fill data lands in any Invalid
// word of a resident line, and the fill logs the line.
func TestParkedLoadHitsAfterFillOfItsLine(t *testing.T) {
	p := smallParams(2)
	r := newStubRig(t, p)
	x := other(2)
	r.load(x, nil) // word 0 ...
	r.fill(x)      // ... now Shared
	r.c.SelfInvalidate()
	r.load(other(0), nil) // both MSHRs busy for good
	r.load(other(1), nil)
	r.eng.Run()
	start := r.eng.Now()
	var done bool
	r.load(x, &done) // word 0 is Invalid again: parks, polls at start+4
	r.eng.At(start+2, func() { r.fill(x) })
	r.eng.RunUntil(start + 4 + p.HitLat)
	if !done {
		t.Fatal("the parked load did not hit on the word a fill made readable")
	}
}

// When a member in the middle of a run issues, the members behind it
// must poll after whatever that success scheduled for their next poll
// cycle, exactly as if every parked access were its own event.
func TestSuccessMidRunQueuesLaterMembersBehindIt(t *testing.T) {
	p := smallParams(2)
	p.WriteExtra = 3 // a store is accepted HitLat+3 = 4 cycles after it issues
	r := newStubRig(t, p)
	a0, a1, b0, b1 := other(0), other(1), other(2), other(3)
	x, y, z := other(4), other(5), other(6)
	r.load(a0, nil) // both MSHRs busy
	r.load(a1, nil)
	r.store(b0, nil) // both registration slots busy
	r.store(b1, nil)

	var xFirst, zFirst, accepted bool
	r.load(x, nil) // parks: no MSHR
	r.store(y, func() {
		accepted = true
		xFirst = r.c.mshrs[x] != nil
		zFirst = r.c.mshrs[z] != nil
	}) // parks: no registration slot
	r.load(z, nil)                                  // parks: no MSHR; x, y, z poll together at 4, 8, 12, 16
	r.eng.At(9, func() { r.ack(b0) })               // at 12: x fails, y issues, z fails
	r.eng.At(13, func() { r.fill(a0); r.fill(a1) }) // both MSHRs free before 16
	r.eng.RunUntil(20)
	if !accepted {
		t.Fatal("y was never accepted")
	}
	if !xFirst {
		t.Error("x, ahead of y in the run, had not issued when y's acceptance ran at cycle 16")
	}
	if zFirst {
		t.Error("z, behind y in the run, issued before y's acceptance at cycle 16")
	}
	for _, line := range []memdata.PAddr{x, z} {
		if m := r.c.mshrs[line]; m == nil || m.born != 16 {
			t.Errorf("line %#x did not issue at cycle 16", line)
		}
	}
}

// A warmed-up storm of parked accesses allocates nothing, whether its
// runs just move on, scan their members and find none that can issue,
// or retry a member that fails again, and a run costs one engine event
// per poll however many accesses it holds.
func TestParkingAllocatesNothing(t *testing.T) {
	p := smallParams(2)
	r := newStubRig(t, p)
	r.load(other(0), nil) // never filled: both MSHRs stay busy
	r.load(other(1), nil)
	for i := 0; i < 8; i++ {
		r.load(other(2+i), nil) // one run of 8
	}
	r.eng.At(1, func() {
		for i := 0; i < 4; i++ {
			r.load(other(10+i), nil) // a second run of 4
		}
	})
	// A stray fill changes nothing but the line log. For a line no load
	// waits on, every run scans its members, finds none that can issue
	// and moves on whole; for a parked load's (absent) line, that load
	// is retried, fails again and parks afresh.
	stray := func() { r.fill(other(100)) }
	ownLine := func() { r.fill(other(5)) }
	storm := func() {
		stray()
		r.eng.RunFor(8)
		ownLine()
		r.eng.RunFor(8)
	}
	for i := 0; i < 8; i++ {
		storm()
	}
	steps := r.eng.Steps()
	r.eng.RunFor(400)
	if got := r.eng.Steps() - steps; got != 200 {
		t.Errorf("12 parked loads in 2 runs cost %d events over 400 cycles, want 200", got)
	}
	steps = r.eng.Steps()
	stray()
	r.eng.RunFor(8)
	if got := r.eng.Steps() - steps; got != 4 {
		t.Errorf("2 runs whose members all fail again cost %d events over 8 cycles, want 4", got)
	}
	if allocs := testing.AllocsPerRun(100, storm); allocs != 0 {
		t.Fatalf("parking allocates %.1f objects per storm step, want 0", allocs)
	}
	if got := r.c.Outstanding(); got != 2+12 {
		t.Fatalf("Outstanding = %d, want 14 (2 MSHRs + 12 parked reservation fails)", got)
	}
}

// With every MSHR busy, a parked load whose line gains an MSHR merges
// into it at its next poll: another load took a freed slot for that
// line, and the MSHR create is logged although no slot is free by then.
func TestParkedLoadMergesIntoNewMSHR(t *testing.T) {
	p := smallParams(2)
	r := newStubRig(t, p)
	a0, a1, x := other(0), other(1), other(2)
	r.load(a0, nil) // both MSHRs busy
	r.load(a1, nil)
	var parked, fresh bool
	r.load(x, &parked) // parks: no MSHR; polls at 4, 8, ...
	r.eng.At(5, func() {
		r.fill(a0)        // frees an MSHR ...
		r.load(x, &fresh) // ... which a new load for x takes at once
	})
	r.eng.RunUntil(7)
	m := r.c.mshrs[x]
	if m == nil || m.born != 5 || len(m.waiters) != 1 {
		t.Fatal("the new load for x did not take the freed MSHR at cycle 5")
	}
	r.eng.RunUntil(8)
	if len(m.waiters) != 2 {
		t.Fatalf("x's MSHR has %d waiters after the parked load's poll at 8, want 2 (it merges)", len(m.waiters))
	}
	r.fill(x)
	r.eng.Run()
	if !parked || !fresh {
		t.Fatalf("loads of x completed: parked %v, fresh %v; want both", parked, fresh)
	}
}

// A store parked for a registration slot issues at the first poll after
// a RegAck frees one, although no line event is logged.
func TestParkedStoreIssuesWhenRegAckFreesASlot(t *testing.T) {
	p := smallParams(2)
	r := newStubRig(t, p)
	b0, b1, y := other(0), other(1), other(2)
	r.store(b0, nil) // both registration slots busy
	r.store(b1, nil)
	r.store(y, nil) // parks: no registration slot; polls at 4, 8, 12, ...
	r.eng.RunUntil(1)
	logged := r.c.logN
	r.eng.At(9, func() { r.ack(b0) })
	r.eng.RunUntil(11)
	if _, ok := r.c.pendingReg[y]; ok {
		t.Fatal("y issued before its poll at 12")
	}
	r.eng.RunUntil(12)
	if _, ok := r.c.pendingReg[y]; !ok {
		t.Fatal("y did not issue at its first poll after the ack freed a slot")
	}
	if r.c.logN != logged+1 {
		t.Fatalf("%d line events logged between the park and y's issue, want only y's own", r.c.logN-logged-1)
	}
}

// When more line events happen between two polls than the log holds,
// the log cannot tell which lines saw one, so every parked access is
// polled, and each issues at the same cycle as if it were polled on
// every line event.
func TestLogOverflowPollsEveryMember(t *testing.T) {
	p := smallParams(2)
	r := newStubRig(t, p)
	r.load(other(0), nil) // both MSHRs busy for good
	r.load(other(1), nil)
	x, y := other(2), other(3)
	var xDone, yDone bool
	r.load(x, &xDone) // park: no MSHR; poll at 4, 8, ...
	r.load(y, &yDone)
	r.eng.At(5, func() {
		r.store(x, nil) // x's word 0 becomes readable (logged) ...
		r.store(y, nil) // ... and y's ...
		for i := 0; i < logLen-1; i++ {
			r.fill(other(100 + i)) // ... and stray fills push x out of the log
		}
	})
	r.eng.RunUntil(8 + p.HitLat)
	if !xDone || !yDone {
		t.Fatalf("after overflowing the log: x hit %v, y hit %v at cycle %d; want both", xDone, yDone, 8+p.HitLat)
	}
}
