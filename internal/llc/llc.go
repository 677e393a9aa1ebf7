// Package llc implements the shared last-level cache: 16 NUCA banks
// (one per mesh node) that together act as the DeNovo registry.
//
// Each word of a cached line is either backed by data at the LLC or
// registered to exactly one owner (an L1 or a stash). Registrations for
// stash words also record the owner's stash-map index so a remote
// request can locate the word inside the owner's stash (paper
// Section 4.3, extension 3). In hardware the owner record lives in the
// LLC data word itself, so it adds no storage; here it is a parallel
// array for clarity.
package llc

import (
	"fmt"
	"strings"

	"stash/internal/check"
	"stash/internal/coh"
	"stash/internal/energy"
	"stash/internal/memdata"
	"stash/internal/noc"
	"stash/internal/sim"
	"stash/internal/stats"
	"stash/internal/trace"
)

// Params configures an LLC bank.
type Params struct {
	BankBytes int       // capacity of this bank
	Ways      int       // set associativity
	AccessLat sim.Cycle // tag+data access latency
	OccupyLat sim.Cycle // bank busy time per access (throughput)
	DRAMLat   sim.Cycle // additional latency for a fill from memory
	NumBanks  int       // banks in the system (for address interleaving)
	// ReadExtra and WriteExtra add technology-dependent cycles to a
	// bank's service time: ReadExtra on ReadReq, WriteExtra on the
	// write-class requests (RegReq, WBReq, WriteReq). The extra cycles
	// extend both the access latency and the bank occupancy, so requests
	// are still processed strictly in arrival order — per-type latency
	// can never reorder directory updates. Zero (the SRAM baseline) is
	// bit-identical to the pre-technology timing model.
	ReadExtra  sim.Cycle
	WriteExtra sim.Cycle
}

// DefaultParams returns the paper's Table 2 L2 configuration: 4 MB
// across 16 banks, 16-way, with latencies that land L2 hits in the
// 29-61 cycle range and memory accesses in the 197-261 range once NoC
// traversal is added.
func DefaultParams() Params {
	return Params{
		BankBytes: 256 << 10,
		Ways:      16,
		AccessLat: 24,
		OccupyLat: 2,
		DRAMLat:   170,
		NumBanks:  16,
	}
}

// BankOf returns the bank index that caches the given line under
// line-interleaved NUCA mapping.
func BankOf(line memdata.PAddr, numBanks int) int {
	return int(line/memdata.LineBytes) % numBanks
}

// line is one resident LLC line. Owners are stored by value with a
// validity mask: the old per-word *coh.Owner representation allocated
// an Owner on every registration, which is the hottest directory
// operation.
type line struct {
	addr  memdata.PAddr
	vals  [memdata.WordsPerLine]uint32
	owner [memdata.WordsPerLine]coh.Owner
	owned memdata.WordMask // words registered to owner[i]
	dirty memdata.WordMask // words newer than DRAM
}

func (l *line) pinned() bool { return l.owned != 0 }

// cacheSet is one associativity set. Ways do not move: recency lives
// in a per-way LRU stamp rather than physical list order, so a hit
// refreshes recency with one word write and an eviction replaces a
// way in place. The tag array is parallel to lines so the hot lookup
// scan never dereferences a line pointer; within len both arrays
// always describe live lines.
type cacheSet struct {
	addrs []memdata.PAddr
	lines []*line
	stamp []uint64
}

// ownerGroups collects the per-owner word masks of one directory
// operation (the forwards of a read, the invalidations of a register or
// write). Owners are kept sorted by (Node, Comp, MapIdx), so iterating
// by index sends packets in exactly the order the old sorted-map-keys
// code did — determinism by construction, with the groups reused from a
// pool instead of a fresh map per request.
type ownerGroups struct {
	owners []coh.Owner
	masks  []memdata.WordMask
}

func (g *ownerGroups) add(o coh.Owner, bit memdata.WordMask) {
	pos := len(g.owners)
	for i, have := range g.owners {
		if have == o {
			g.masks[i] |= bit
			return
		}
		if ownerLess(o, have) {
			pos = i
			break
		}
	}
	g.owners = append(g.owners, coh.Owner{})
	g.masks = append(g.masks, 0)
	copy(g.owners[pos+1:], g.owners[pos:])
	copy(g.masks[pos+1:], g.masks[pos:])
	g.owners[pos] = o
	g.masks[pos] = bit
}

func ownerLess(a, b coh.Owner) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Comp != b.Comp {
		return a.Comp < b.Comp
	}
	return a.MapIdx < b.MapIdx
}

// bankOp is a pooled two-stage bank operation: arrival (after the tag
// access latency) then response (after the optional DRAM fill latency).
// Its run closure is bound once at creation, so serving a request
// schedules no new closures. The response's addressing fields are
// copied out of the request packet during the arrival stage; the packet
// is not retained past it.
type bankOp struct {
	b       *Bank
	respond bool // false: arrival stage; true: response stage
	// pkt is a private copy of the arriving packet: the *coh.Packet
	// handed to HandlePacket is pooled and only valid during that call,
	// while the bank needs it AccessLat cycles later.
	pkt     coh.Packet
	kind    coh.PacketType
	line    *line            // read(): data source at response time
	direct  memdata.WordMask // read(): words answered by the LLC itself
	groups  *ownerGroups     // read(): forwards; register()/write(): invalidations
	reqLine memdata.PAddr
	reqMask memdata.WordMask
	reqNode int
	reqComp coh.Component
	reqMap  int
	run     func()
}

// Bank is one LLC bank, attached to a node's router as coh.ToLLC.
type Bank struct {
	eng  *sim.Engine
	net  *noc.Network
	node int
	p    Params
	mem  *memdata.Memory
	acct *energy.Account

	sets     []cacheSet
	stampN   uint64 // LRU stamp issuer: larger = more recently used
	nextFree sim.Cycle
	ogFree   []*ownerGroups // reusable owner-group scratch (in flight until the response sends)
	opFree   []*bankOp

	chk      *check.Checker
	inFlight int // requests accepted but not yet answered
	// stall, when set, perturbs each arriving request (fault injection):
	// a returned delay pushes the access out, drop swallows the packet
	// entirely — an induced lost wakeup the watchdog must catch.
	stall   func(now sim.Cycle) (delay sim.Cycle, drop bool)
	dropped int

	hits      *stats.Counter
	misses    *stats.Counter
	forwards  *stats.Counter
	regs      *stats.Counter
	wbs       *stats.Counter
	evictions *stats.Counter

	tsnk       *trace.Sink
	trRequests *trace.Series
	trMisses   *trace.Series
}

// NewBank builds the bank resident at node, using mem as backing DRAM.
func NewBank(eng *sim.Engine, net *noc.Network, node int, p Params, mem *memdata.Memory, acct *energy.Account, set *stats.Set) *Bank {
	numLines := p.BankBytes / memdata.LineBytes
	numSets := numLines / p.Ways
	if numSets == 0 {
		panic("llc: bank too small for associativity")
	}
	b := &Bank{
		eng:       eng,
		net:       net,
		node:      node,
		p:         p,
		mem:       mem,
		acct:      acct,
		sets:      make([]cacheSet, numSets),
		hits:      set.Counter(fmt.Sprintf("llc.%d.hits", node)),
		misses:    set.Counter(fmt.Sprintf("llc.%d.misses", node)),
		forwards:  set.Counter(fmt.Sprintf("llc.%d.forwards", node)),
		regs:      set.Counter(fmt.Sprintf("llc.%d.registrations", node)),
		wbs:       set.Counter(fmt.Sprintf("llc.%d.writebacks", node)),
		evictions: set.Counter(fmt.Sprintf("llc.%d.evictions", node)),
	}
	ptrs := make([]*line, numLines)
	tags := make([]memdata.PAddr, numLines)
	stamps := make([]uint64, numLines)
	for i := range b.sets {
		b.sets[i] = cacheSet{
			addrs: tags[i*p.Ways : i*p.Ways : (i+1)*p.Ways],
			lines: ptrs[i*p.Ways : i*p.Ways : (i+1)*p.Ways],
			stamp: stamps[i*p.Ways : i*p.Ways : (i+1)*p.Ways],
		}
	}
	return b
}

// acquireGroups takes an owner-group scratch from the pool. It is
// released by the response closure once its packets have been sent.
func (b *Bank) acquireGroups() *ownerGroups {
	if n := len(b.ogFree); n > 0 {
		g := b.ogFree[n-1]
		b.ogFree = b.ogFree[:n-1]
		return g
	}
	return &ownerGroups{}
}

func (b *Bank) releaseGroups(g *ownerGroups) {
	g.owners = g.owners[:0]
	g.masks = g.masks[:0]
	b.ogFree = append(b.ogFree, g)
}

func (b *Bank) setIndex(addr memdata.PAddr) int {
	return int(addr/(memdata.LineBytes*memdata.PAddr(b.p.NumBanks))) % len(b.sets)
}

// lookup returns the resident line for addr, refreshing LRU, or nil.
func (b *Bank) lookup(addr memdata.PAddr) *line {
	s := &b.sets[b.setIndex(addr)]
	for i, a := range s.addrs {
		if a == addr {
			b.stampN++
			s.stamp[i] = b.stampN
			return s.lines[i]
		}
	}
	return nil
}

// fetch ensures addr's line is resident, filling from DRAM if needed.
// It reports whether a DRAM fill occurred.
func (b *Bank) fetch(addr memdata.PAddr) (*line, bool) {
	if l := b.lookup(addr); l != nil {
		return l, false
	}
	s := &b.sets[b.setIndex(addr)]
	// The line struct is allocated fresh (not pooled): an in-flight
	// response closure holds the previous occupant until it sends, and
	// reusing its storage would let a racing fill clobber the values the
	// response is about to serve. Fills are DRAM-latency rare; only the
	// set slices are reused.
	l := &line{addr: addr, vals: b.mem.LoadLine(addr)}
	b.acct.Add(energy.DRAMAccess, 1)
	if n := len(s.lines); n < cap(s.lines) {
		s.lines = s.lines[:n+1]
		s.addrs = s.addrs[:n+1]
		s.stamp = s.stamp[:n+1]
		return l, b.install(s, l, addr, n)
	}
	// Evict the least recently used non-pinned line (minimum stamp).
	// Registered words pin a line: the registry entry must survive
	// until written back.
	victim := -1
	var oldest uint64
	for i, cand := range s.lines {
		if !cand.pinned() && (victim < 0 || s.stamp[i] < oldest) {
			victim = i
			oldest = s.stamp[i]
		}
	}
	if victim < 0 {
		panic(fmt.Sprintf("llc: all ways pinned in set %d (bank %d); increase capacity", b.setIndex(addr), b.node))
	}
	v := s.lines[victim]
	if v.dirty != 0 {
		b.mem.StoreMasked(v.addr, v.dirty, v.vals)
		b.acct.Add(energy.DRAMAccess, 1)
	}
	b.evictions.Inc()
	return l, b.install(s, l, addr, victim)
}

// install places l, the freshest line, at way w. It returns true so
// fetch's fill paths can tail-call it.
func (b *Bank) install(s *cacheSet, l *line, addr memdata.PAddr, w int) bool {
	s.lines[w] = l
	s.addrs[w] = addr
	b.stampN++
	s.stamp[w] = b.stampN
	return true
}

// SetChecker attaches the self-check layer; a nil checker (the
// default) costs one nil comparison per response.
func (b *Bank) SetChecker(c *check.Checker) { b.chk = c }

// SetTrace attaches an event sink. A nil sink (the default) leaves
// every instrumented site a nil-check no-op.
func (b *Bank) SetTrace(snk *trace.Sink) {
	b.tsnk = snk
	b.trRequests = snk.Series("requests")
	b.trMisses = snk.Series("misses")
}

// SetStall installs a fault-injection hook consulted on every arriving
// request. A nil fn removes it.
func (b *Bank) SetStall(fn func(now sim.Cycle) (delay sim.Cycle, drop bool)) {
	b.stall = fn
}

// Dropped reports how many requests the stall hook has swallowed.
func (b *Bank) Dropped() int { return b.dropped }

// HandlePacket implements coh.Handler. Requests are serialized through
// the bank with OccupyLat throughput and answered after AccessLat
// (plus DRAMLat on a fill).
func (b *Bank) HandlePacket(p *coh.Packet) {
	var stallBy sim.Cycle
	if b.stall != nil {
		delay, drop := b.stall(b.eng.Now())
		if drop {
			// Induced lost wakeup: the requester waits forever for a
			// response that never comes.
			b.dropped++
			return
		}
		stallBy = delay
	}
	b.inFlight++
	b.trRequests.Add(uint64(b.eng.Now()), 1)
	extra, access := b.p.WriteExtra, energy.L2Write
	if p.Type == coh.ReadReq {
		extra, access = b.p.ReadExtra, energy.L2Read
	}
	start := b.eng.Now() + stallBy
	if b.nextFree > start {
		start = b.nextFree
	}
	b.nextFree = start + b.p.OccupyLat + extra
	b.acct.Add(access, 1)
	o := b.newOp()
	o.pkt = *p
	b.eng.At(start+b.p.AccessLat+extra, o.run)
}

func (b *Bank) newOp() *bankOp {
	if n := len(b.opFree); n > 0 {
		o := b.opFree[n-1]
		b.opFree = b.opFree[:n-1]
		return o
	}
	o := &bankOp{b: b}
	o.run = o.fire
	return o
}

// fire advances the op through its two stages: the arrival stage runs
// the directory update and arms the response; the response stage sends
// the reply packets and retires the op.
func (o *bankOp) fire() {
	b := o.b
	if !o.respond {
		o.respond = true
		b.process(&o.pkt, o)
		return
	}
	switch o.kind {
	case coh.ReadReq:
		if o.direct != 0 {
			coh.Send(b.net, &coh.Packet{
				Type: coh.DataResp, Line: o.reqLine, Mask: o.direct, Vals: o.line.vals,
				SrcNode: b.node, SrcComp: coh.ToLLC,
				DstNode: o.reqNode, DstComp: o.reqComp,
			})
		}
		for i, own := range o.groups.owners {
			b.forwards.Inc()
			coh.Send(b.net, &coh.Packet{
				Type: coh.FwdReadReq, Line: o.reqLine, Mask: o.groups.masks[i],
				SrcNode: b.node, SrcComp: coh.ToLLC,
				DstNode: own.Node, DstComp: own.Comp,
				ReqNode: o.reqNode, ReqComp: o.reqComp,
				MapIdx: own.MapIdx,
			})
		}
	case coh.RegReq:
		for i, own := range o.groups.owners {
			coh.Send(b.net, &coh.Packet{
				Type: coh.OwnerInv, Line: o.reqLine, Mask: o.groups.masks[i],
				SrcNode: b.node, SrcComp: coh.ToLLC,
				DstNode: own.Node, DstComp: own.Comp,
				MapIdx: own.MapIdx,
			})
		}
		coh.Send(b.net, &coh.Packet{
			Type: coh.RegAck, Line: o.reqLine, Mask: o.reqMask,
			SrcNode: b.node, SrcComp: coh.ToLLC,
			DstNode: o.reqNode, DstComp: o.reqComp,
			MapIdx: o.reqMap,
		})
	case coh.WBReq:
		coh.Send(b.net, &coh.Packet{
			Type: coh.WBAck, Line: o.reqLine, Mask: o.reqMask,
			SrcNode: b.node, SrcComp: coh.ToLLC,
			DstNode: o.reqNode, DstComp: o.reqComp,
		})
	case coh.WriteReq:
		for i, own := range o.groups.owners {
			coh.Send(b.net, &coh.Packet{
				Type: coh.OwnerInv, Line: o.reqLine, Mask: o.groups.masks[i],
				SrcNode: b.node, SrcComp: coh.ToLLC,
				DstNode: own.Node, DstComp: own.Comp,
				MapIdx: own.MapIdx,
			})
		}
		coh.Send(b.net, &coh.Packet{
			Type: coh.WBAck, Line: o.reqLine, Mask: o.reqMask,
			SrcNode: b.node, SrcComp: coh.ToLLC,
			DstNode: o.reqNode, DstComp: o.reqComp,
		})
	}
	if o.groups != nil {
		b.releaseGroups(o.groups)
		o.groups = nil
	}
	o.line = nil
	o.respond = false
	b.opFree = append(b.opFree, o)
	b.inFlight--
	b.chk.Progress() // a directory transaction completed
}

func (b *Bank) process(p *coh.Packet, o *bankOp) {
	o.kind = p.Type
	o.reqLine = p.Line
	o.reqMask = p.Mask
	o.reqNode = p.SrcNode
	o.reqComp = p.SrcComp
	o.reqMap = p.MapIdx
	switch p.Type {
	case coh.ReadReq:
		b.read(p, o)
	case coh.RegReq:
		b.register(p, o)
	case coh.WBReq:
		b.writeback(p, o)
	case coh.WriteReq:
		b.write(p, o)
	default:
		panic("llc: unexpected packet " + p.Type.String())
	}
}

// respondOp schedules the op's response stage, adding DRAM latency if
// the line was just filled.
func (b *Bank) respondOp(filled bool, o *bankOp) {
	if filled {
		b.eng.Schedule(b.p.DRAMLat, o.run)
	} else {
		b.eng.Schedule(0, o.run)
	}
}

func (b *Bank) read(p *coh.Packet, o *bankOp) {
	l, filled := b.fetch(p.Line)
	if filled {
		b.misses.Inc()
		b.tsnk.Event(uint64(b.eng.Now()), trace.KMiss, uint64(p.Line), 0)
		b.trMisses.Add(uint64(b.eng.Now()), 1)
	} else {
		b.hits.Inc()
	}
	direct := memdata.WordMask(0)
	fwd := b.acquireGroups()
	for i := 0; i < memdata.WordsPerLine; i++ {
		if !p.Mask.Has(i) {
			continue
		}
		if l.owned.Has(i) {
			fwd.add(l.owner[i], memdata.Bit(i))
		} else {
			direct |= memdata.Bit(i)
		}
	}
	o.line = l
	o.direct = direct
	o.groups = fwd
	b.respondOp(filled, o)
}

func (b *Bank) register(p *coh.Packet, o *bankOp) {
	l, filled := b.fetch(p.Line)
	b.regs.Inc()
	newOwner := coh.Owner{Node: p.SrcNode, Comp: p.SrcComp, MapIdx: p.MapIdx}
	inv := b.acquireGroups()
	for i := 0; i < memdata.WordsPerLine; i++ {
		if !p.Mask.Has(i) {
			continue
		}
		if l.owned.Has(i) && l.owner[i] != newOwner {
			inv.add(l.owner[i], memdata.Bit(i))
		}
		l.owner[i] = newOwner
		l.owned |= memdata.Bit(i)
	}
	o.groups = inv
	b.respondOp(filled, o)
}

func (b *Bank) writeback(p *coh.Packet, o *bankOp) {
	l, filled := b.fetch(p.Line)
	b.wbs.Inc()
	b.tsnk.Event(uint64(b.eng.Now()), trace.KWriteback, uint64(p.Line), 0)
	for i := 0; i < memdata.WordsPerLine; i++ {
		if !p.Mask.Has(i) {
			continue
		}
		if !l.owned.Has(i) || l.owner[i].Node != p.SrcNode || l.owner[i].Comp != p.SrcComp {
			// The word was re-registered (or never owned by the sender):
			// the incoming value is stale; the current owner is
			// authoritative. Drop it.
			continue
		}
		l.vals[i] = p.Vals[i]
		l.owned &^= memdata.Bit(i)
		l.dirty |= memdata.Bit(i)
	}
	b.respondOp(filled, o)
}

// write handles uncached writes (DMA scratchpad writeout): the data is
// deposited at the LLC, displacing any stale registration.
func (b *Bank) write(p *coh.Packet, o *bankOp) {
	l, filled := b.fetch(p.Line)
	b.wbs.Inc()
	b.tsnk.Event(uint64(b.eng.Now()), trace.KWriteback, uint64(p.Line), 0)
	inv := b.acquireGroups()
	for i := 0; i < memdata.WordsPerLine; i++ {
		if !p.Mask.Has(i) {
			continue
		}
		if l.owned.Has(i) {
			inv.add(l.owner[i], memdata.Bit(i))
			l.owned &^= memdata.Bit(i)
		}
		l.vals[i] = p.Vals[i]
		l.dirty |= memdata.Bit(i)
	}
	o.groups = inv
	b.respondOp(filled, o)
}

// Outstanding reports requests accepted but not yet answered, for the
// watchdog's work-pending gate.
func (b *Bank) Outstanding() int { return b.inFlight }

// CheckInvariants verifies the bank's structural invariants without
// touching LRU order or any pooled state:
//
//   - owner sanity: a registered word's owner carries a stash-map index
//     exactly when the owner is a stash;
//   - no duplicate live lines within a set.
func (b *Bank) CheckInvariants() error {
	for si := range b.sets {
		s := &b.sets[si]
		for i, l := range s.lines {
			if l.addr != s.addrs[i] {
				return fmt.Errorf("set %d way %d: tag array %#x disagrees with line %#x", si, i, s.addrs[i], l.addr)
			}
			for j := i + 1; j < len(s.lines); j++ {
				if s.addrs[j] == l.addr {
					return fmt.Errorf("set %d: line %#x resident twice", si, l.addr)
				}
			}
			for w := 0; w < memdata.WordsPerLine; w++ {
				if !l.owned.Has(w) {
					continue
				}
				own := l.owner[w]
				if (own.Comp == coh.ToStash) != (own.MapIdx >= 0) {
					return fmt.Errorf("line %#x word %d: owner %v has inconsistent map index", l.addr, w, own)
				}
			}
		}
	}
	return nil
}

// ForEachOwned calls fn for every registered word in the bank, for
// cross-structure ownership audits at quiescent boundaries.
func (b *Bank) ForEachOwned(fn func(addr memdata.PAddr, word int, own coh.Owner)) {
	for si := range b.sets {
		for _, l := range b.sets[si].lines {
			if l.owned == 0 {
				continue
			}
			for w := 0; w < memdata.WordsPerLine; w++ {
				if l.owned.Has(w) {
					fn(l.addr, w, l.owner[w])
				}
			}
		}
	}
}

// DebugString renders the bank's state for failure dumps: occupancy,
// in-flight count, and every line with live registrations.
func (b *Bank) DebugString() string {
	var sb strings.Builder
	live, owned := 0, 0
	for si := range b.sets {
		for _, l := range b.sets[si].lines {
			live++
			if l.owned != 0 {
				owned++
			}
		}
	}
	fmt.Fprintf(&sb, "in-flight=%d lines=%d owned-lines=%d dropped=%d next-free=%d",
		b.inFlight, live, owned, b.dropped, b.nextFree)
	for si := range b.sets {
		for _, l := range b.sets[si].lines {
			if l.owned != 0 {
				fmt.Fprintf(&sb, "\nline %#x owned=%016b", l.addr, l.owned)
			}
		}
	}
	return sb.String()
}

// Peek returns the word's value and owner as seen by the registry,
// for tests and end-of-run verification. The second result is nil when
// the LLC itself holds the data; ok is false when the line is not
// resident (the value then lives in DRAM).
func (b *Bank) Peek(addr memdata.PAddr) (val uint32, owner *coh.Owner, ok bool) {
	lineAddr := memdata.LineOf(addr)
	s := &b.sets[b.setIndex(lineAddr)]
	for i, a := range s.addrs {
		if a == lineAddr {
			l := s.lines[i]
			w := memdata.WordIndex(addr)
			if l.owned.Has(w) {
				return l.vals[w], &l.owner[w], true
			}
			return l.vals[w], nil, true
		}
	}
	return 0, nil, false
}
