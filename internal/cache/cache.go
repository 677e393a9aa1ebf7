// Package cache implements the L1 data caches (GPU CU and CPU core)
// with the DeNovo word-granularity coherence protocol: line-granularity
// tags, per-word Invalid/Shared/Registered state, registration on store
// misses, self-invalidation of Shared words at kernel boundaries, and
// lazy writeback of Registered words on eviction.
//
// The cache is physically indexed and tagged: every access pays a TLB
// lookup and a tag comparison, which is exactly the energy overhead the
// stash avoids (paper Table 1).
package cache

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"stash/internal/check"
	"stash/internal/coh"
	"stash/internal/energy"
	"stash/internal/llc"
	"stash/internal/memdata"
	"stash/internal/noc"
	"stash/internal/sim"
	"stash/internal/stats"
	"stash/internal/trace"
)

// Params configures an L1 cache.
type Params struct {
	SizeBytes    int
	Ways         int
	HitLat       sim.Cycle
	NumLLCBanks  int
	MSHRs        int  // maximum outstanding missed lines; bursts beyond this stall
	ChargeEnergy bool // false for CPU L1s: the paper does not measure them
	// ReadExtra and WriteExtra add technology-dependent cycles on top of
	// HitLat: ReadExtra delays load completions (hit and fill delivery),
	// WriteExtra delays store accepts. Zero (the default SRAM baseline)
	// is bit-identical to the pre-technology timing model. Coherence
	// packet injection times are never perturbed: writeback sends stay
	// synchronous so the protocol's per-flow ordering (a WBReq must not
	// reorder against a later RegReq of the same line) is preserved by
	// construction.
	ReadExtra  sim.Cycle
	WriteExtra sim.Cycle
}

// DefaultParams returns the paper's Table 2 GPU L1 configuration:
// 32 KB, 8-way, 1-cycle hits, 16 MSHRs (GPGPU-Sim's per-L1 default
// range), which bounds how deeply explicit copy bursts can pipeline.
func DefaultParams() Params {
	return Params{SizeBytes: 32 << 10, Ways: 8, HitLat: 1, NumLLCBanks: 16, MSHRs: 16, ChargeEnergy: true}
}

// line keeps per-word DeNovo state as three word masks instead of a
// [WordsPerLine]coh.State array: a word is Shared, Registered, or
// PendingReg when its bit is set in the corresponding mask, Invalid
// when it appears in none. The masks are mutually exclusive. This
// turns every per-word state loop on the access path into one or two
// mask operations.
type line struct {
	addr   memdata.PAddr
	vals   [memdata.WordsPerLine]uint32
	shared memdata.WordMask
	reg    memdata.WordMask
	pend   memdata.WordMask
	mshr   *mshr // the line's live MSHR, if any (mirrors c.mshrs[addr])
	// wbWait mirrors c.wbuf.Busy(addr): the previous tenant of this
	// address still has a writeback in flight, so the line cannot be
	// evicted (the WBBuffer entry would be clobbered by a second Put).
	// Set when the line is installed, cleared by the WBAck handler;
	// keeping it on the line makes the victim scan map-free.
	wbWait bool
}

// readable covers the words that can satisfy a load (any non-Invalid
// state, see coh.State.Readable).
func (l *line) readable() memdata.WordMask { return l.shared | l.reg | l.pend }

// owned covers Registered and PendingReg words (coh.State.Owned).
func (l *line) owned() memdata.WordMask { return l.reg | l.pend }

func (l *line) anyPending() bool { return l.pend != 0 }

// wordState reconstructs the coh.State of one word, for invariant
// checks, debugging, and Peek.
func (l *line) wordState(i int) coh.State {
	switch {
	case l.pend.Has(i):
		return coh.PendingReg
	case l.reg.Has(i):
		return coh.Registered
	case l.shared.Has(i):
		return coh.Shared
	default:
		return coh.Invalid
	}
}

type waiter struct {
	mask memdata.WordMask
	done func(vals [memdata.WordsPerLine]uint32)
}

// opKind discriminates pooled deferred operations.
type opKind uint8

const (
	opRetryLoad  opKind = iota // re-issue a stalled Load
	opRetryStore               // re-issue a stalled Store
	opDeliver                  // deliver vals to a load's done callback
)

// op is a pooled deferred operation: a parked access or a completing
// load. Its run closure is bound once when the op is first created, so
// scheduling a hit/fill completion allocates nothing in steady state.
// Parked accesses are never events of their own; they wait in runs.
type op struct {
	c    *Cache
	kind opKind
	// wait is why a parked access last failed. A reservation fail
	// (noMSHR, noRegSlot) is held in c.outstanding until it issues.
	wait  wait
	addr  memdata.PAddr
	mask  memdata.WordMask
	vals  [memdata.WordsPerLine]uint32
	doneL func(vals [memdata.WordsPerLine]uint32)
	doneS func()
	run   func()
}

// fire delivers a completing load's values. The op is released before
// the callback runs, which may itself acquire ops.
func (o *op) fire() {
	c := o.c
	vals := o.vals
	doneL := o.doneL
	o.doneL = nil
	c.opFree = append(c.opFree, o)
	doneL(vals)
}

// retry polls a parked access: it issues if nothing makes it wait any
// longer, and parks again otherwise. A failed poll changes nothing but
// the access's place in the run queue.
func (c *Cache) retry(o *op) {
	counted := o.wait != setBusy
	if counted {
		c.outstanding--
	}
	var w wait
	if o.kind == opRetryLoad {
		w = c.tryLoad(o.addr, o.mask, o.doneL)
	} else {
		w = c.tryStore(o.addr, o.mask, &o.vals, o.doneS)
	}
	if w == issued {
		o.doneL, o.doneS = nil, nil
		c.opFree = append(c.opFree, o)
	} else {
		c.park(o, w)
	}
	if counted {
		c.checkDrained()
	}
}

func (c *Cache) newOp() *op {
	if n := len(c.opFree); n > 0 {
		o := c.opFree[n-1]
		c.opFree = c.opFree[:n-1]
		return o
	}
	o := &op{c: c}
	o.run = o.fire
	return o
}

type mshr struct {
	requested memdata.WordMask // words asked of the LLC, not yet arrived
	waiters   []waiter
	born      sim.Cycle // cycle the entry was allocated, for age checks
}

// cset is one associativity set. Ways do not move: recency lives in a
// per-way LRU stamp (monotonically increasing use counter) instead of
// physical list order, so a hit refreshes recency with one word write
// and an eviction replaces a way in place — no shifting. The stamp
// order is exactly the move-to-front list order it replaced: front of
// the list = largest stamp, LRU victim = smallest stamp. The tag,
// stamp, and evictability arrays are parallel and contiguous so the
// hot scans never dereference a line pointer; within len the arrays
// always describe live lines.
type cset struct {
	addrs []memdata.PAddr
	lines []*line
	stamp []uint64
	// busyMask mirrors each way's evictability: bit w set when way w's
	// line has a pending registration, a live MSHR, or an in-flight
	// writeback of a previous tenant (wbWait). The victim scan reads
	// one word and iterates only the zero bits, and a full set with no
	// evictable way is recognized from that word alone.
	busyMask uint64
	// wbs counts writeback-buffer entries whose address maps to this
	// set. When zero — the overwhelmingly common case — installing a
	// line skips the buffer lookup entirely.
	wbs int32
}

// refreshBusy recomputes the evictability bit of addr's resident
// line l. Callers invoke it on the state transitions that change it:
// MSHR create/retire, registration begin/ack, writeback ack.
func (c *Cache) refreshBusy(addr memdata.PAddr, l *line) {
	s := &c.sets[c.setIndex(addr)]
	for i, a := range s.addrs {
		if a == addr {
			if l.pend != 0 || l.mshr != nil || l.wbWait {
				s.busyMask |= 1 << uint(i)
			} else {
				s.busyMask &^= 1 << uint(i)
			}
			return
		}
	}
}

// Cache is one L1, attached to its node's router as coh.ToL1.
type Cache struct {
	eng  *sim.Engine
	net  *noc.Network
	node int
	comp coh.Component
	p    Params
	acct *energy.Account
	// sets hold LRU order (front = MRU). Line structs come from the
	// preallocated linePool and are reused in place on eviction and
	// after WritebackAll, so the steady-state access path never
	// allocates: a set's slices are truncated rather than nilled,
	// keeping dead line pointers in capacity for the next allocate.
	sets    []cset
	setMask int // len(sets)-1 when a power of two, else -1 (modulo path)
	// stateEpoch moves on every change to ways or their evictability:
	// MSHR create and retire, registration add and ack, install and
	// evict, fill, writeback ack, WritebackAll. While it stands still, a
	// setBusy access would fail again (see run.next).
	stateEpoch uint64
	// lineLog holds the last line events, the only things besides a
	// freed slot that can end a reservation fail: a fill (it makes words
	// readable and can retire an MSHR), an MSHR create (a load can merge
	// into it) and a store's new words (readable, and a registration to
	// merge with). Event k's line tag sits in lineLog[k%logLen] until
	// overwritten; logN counts the events. See run.next.
	lineLog [logLen]uint32
	logN    uint64
	tail    *run   // the run scheduled last; see park
	runFree []*run // pooled runs
	// stampN issues LRU stamps: every hit or install takes the next
	// value, so larger stamp = more recently used.
	stampN   uint64
	linePool []line
	usedLine int // lines handed out of linePool so far
	mshrs    map[memdata.PAddr]*mshr
	mshrFree []*mshr // retired MSHRs, reused to keep misses allocation-free
	opFree   []*op   // pooled deferred operations (retries, load completions)
	// pendingReg tracks words with registration requests in flight.
	pendingReg  map[memdata.PAddr]memdata.WordMask
	wbuf        *coh.WBBuffer
	outstanding int // registrations + writebacks in flight
	drainWait   []func()
	chk         *check.Checker

	tsnk         *trace.Sink
	trMisses     *trace.Series
	trWritebacks *trace.Series

	hits       *stats.Counter
	misses     *stats.Counter
	evictions  *stats.Counter
	writebacks *stats.Counter
	remoteHits *stats.Counter
}

// New builds an L1 at the given node. comp is coh.ToL1 for a CPU/GPU L1
// (it exists so tests can instantiate two caches on one node).
func New(eng *sim.Engine, net *noc.Network, node int, name string, p Params, acct *energy.Account, set *stats.Set) *Cache {
	numLines := p.SizeBytes / memdata.LineBytes
	numSets := numLines / p.Ways
	if numSets == 0 {
		panic("cache: too small for associativity")
	}
	if p.Ways > 64 {
		panic("cache: associativity exceeds the 64-way busyMask word")
	}
	c := &Cache{
		eng:        eng,
		net:        net,
		node:       node,
		comp:       coh.ToL1,
		p:          p,
		acct:       acct,
		sets:       make([]cset, numSets),
		linePool:   make([]line, numLines),
		mshrs:      make(map[memdata.PAddr]*mshr),
		pendingReg: make(map[memdata.PAddr]memdata.WordMask),
		wbuf:       coh.NewWBBuffer(),
		hits:       set.Counter(fmt.Sprintf("l1.%s.hits", name)),
		misses:     set.Counter(fmt.Sprintf("l1.%s.misses", name)),
		evictions:  set.Counter(fmt.Sprintf("l1.%s.evictions", name)),
		writebacks: set.Counter(fmt.Sprintf("l1.%s.writebacks", name)),
		remoteHits: set.Counter(fmt.Sprintf("l1.%s.remote_hits", name)),
	}
	ptrs := make([]*line, numLines)
	tags := make([]memdata.PAddr, numLines)
	stamps := make([]uint64, numLines)
	for i := range c.sets {
		c.sets[i] = cset{
			addrs: tags[i*p.Ways : i*p.Ways : (i+1)*p.Ways],
			lines: ptrs[i*p.Ways : i*p.Ways : (i+1)*p.Ways],
			stamp: stamps[i*p.Ways : i*p.Ways : (i+1)*p.Ways],
		}
	}
	c.setMask = -1
	if numSets&(numSets-1) == 0 {
		c.setMask = numSets - 1
	}
	return c
}

func (c *Cache) setIndex(addr memdata.PAddr) int {
	if c.setMask >= 0 {
		return int(addr/memdata.LineBytes) & c.setMask
	}
	return int(addr/memdata.LineBytes) % len(c.sets)
}

func (c *Cache) lookup(addr memdata.PAddr) *line {
	s := &c.sets[c.setIndex(addr)]
	for i, a := range s.addrs {
		if a == addr {
			c.stampN++
			s.stamp[i] = c.stampN
			return s.lines[i]
		}
	}
	return nil
}

// allocate returns the resident line for addr, creating it (possibly
// evicting) if needed. It returns nil when every way is unevictable
// right now; the caller must retry.
func (c *Cache) allocate(addr memdata.PAddr) *line {
	if l := c.lookup(addr); l != nil {
		return l
	}
	return c.allocateMiss(addr)
}

// allocateMiss is allocate's non-resident path: find a way for addr,
// evicting if necessary. Callers must have established that addr is
// not resident.
func (c *Cache) allocateMiss(addr memdata.PAddr) *line {
	s := &c.sets[c.setIndex(addr)]
	if n := len(s.lines); n < cap(s.lines) {
		// Grow into capacity, reusing a dead line left behind a
		// truncation (WritebackAll) or taking a fresh one from the pool.
		s.lines = s.lines[:n+1]
		s.addrs = s.addrs[:n+1]
		s.stamp = s.stamp[:n+1]
		l := s.lines[n]
		if l == nil {
			l = &c.linePool[c.usedLine]
			c.usedLine++
		}
		return c.install(s, l, addr, n)
	}
	ev := ^s.busyMask & (uint64(1)<<uint(len(s.addrs)) - 1)
	if ev == 0 {
		return nil
	}
	victim := bits.TrailingZeros64(ev)
	oldest := s.stamp[victim]
	for m := ev & (ev - 1); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if s.stamp[i] < oldest {
			victim, oldest = i, s.stamp[i]
		}
	}
	l := s.lines[victim]
	c.evict(s, l)
	return c.install(s, l, addr, victim)
}

// install resets l, resident at way w, as the freshest line for addr.
func (c *Cache) install(s *cset, l *line, addr memdata.PAddr, w int) *line {
	c.stateEpoch++
	wbWait := s.wbs != 0 && c.wbuf.Busy(addr)
	*l = line{addr: addr, wbWait: wbWait}
	if wbWait {
		s.busyMask |= 1 << uint(w)
	} else {
		s.busyMask &^= 1 << uint(w)
	}
	s.lines[w] = l
	s.addrs[w] = addr
	c.stampN++
	s.stamp[w] = c.stampN
	return l
}

func (c *Cache) evict(s *cset, v *line) {
	c.evictions.Inc()
	mask := v.reg
	if mask == 0 {
		return
	}
	if !c.wbuf.Busy(v.addr) {
		s.wbs++ // a new writeback-buffer entry lands in this set
	}
	c.writebacks.Inc()
	c.tsnk.Event(uint64(c.eng.Now()), trace.KWriteback, uint64(v.addr), 0)
	c.trWritebacks.Add(uint64(c.eng.Now()), 1)
	c.wbuf.Put(v.addr, mask, v.vals)
	c.outstanding++
	coh.Send(c.net, &coh.Packet{
		Type: coh.WBReq, Line: v.addr, Mask: mask, Vals: v.vals,
		SrcNode: c.node, SrcComp: c.comp,
		DstNode: llc.BankOf(v.addr, c.p.NumLLCBanks), DstComp: coh.ToLLC,
		MapIdx: -1,
	})
}

// wait says why an access could not issue.
type wait uint8

const (
	issued wait = iota
	// noMSHR and noRegSlot are reservation fails, GPGPU-Sim's term: a
	// load needs a new miss-status register and every one is busy, or a
	// store needs a new registration slot and the buffer is full. They
	// are decided before a victim is chosen, so the access evicts
	// nothing, installs nothing and refreshes no LRU stamp.
	noMSHR
	noRegSlot
	// setBusy: the access could reserve what it needs, but every way
	// of its set is unevictable right now.
	setBusy
)

// retryDelay is how often a stalled access polls for its resource.
const retryDelay = 4

// run is one engine event standing for a run of parked accesses: polls
// that would otherwise be separate events, back to back in one cycle.
// A failed poll schedules only its own next poll, so a run stays back
// to back every retryDelay cycles until a member issues, and one event
// in that position reproduces the exact order of the polls it replaces.
type run struct {
	c     *Cache
	at    sim.Cycle // cycle the run's event is scheduled for
	seq   uint64    // that event's engine sequence number
	waits uint8     // bit w set: some member waits for reason w
	// stateEpoch and logN when the run last polled or started, which is
	// no later than any member's last failure.
	state, logN uint64
	ops         []*op
	fire        func()
}

// park queues a stalled access for its poll retryDelay cycles from now.
// A reservation fail counts as outstanding, so a drain cannot complete
// (and the next phase begin) before the access has actually issued.
func (c *Cache) park(o *op, w wait) {
	if w != setBusy {
		c.outstanding++
	}
	r := c.parkRun()
	r.waits |= 1 << w
	o.wait = w
	r.ops = append(r.ops, o)
}

// repark queues members of a polling run that would fail again for the
// same reasons (waits) as they did last time, as one-by-one parks would.
// Failed polls change nothing, so the members stay together: they join
// the run that the first of them would join.
func (c *Cache) repark(ops []*op, waits uint8) {
	r := c.parkRun()
	r.waits |= waits
	r.ops = append(r.ops, ops...)
}

// parkRun returns the run an access stalled now joins: the tail run when
// that run's event is still the last one scheduled for retryDelay cycles
// from now, which is exactly where an event of the access's own would
// run, and a new run scheduled there otherwise.
func (c *Cache) parkRun() *run {
	if c.tailJoinable() {
		return c.tail
	}
	var r *run
	if n := len(c.runFree); n > 0 {
		r = c.runFree[n-1]
		c.runFree = c.runFree[:n-1]
	} else {
		r = &run{c: c}
		r.fire = r.poll
	}
	r.waits = 0
	r.state, r.logN = c.stateEpoch, c.logN
	c.schedule(r, c.eng.Now()+retryDelay)
	return r
}

// tailJoinable reports whether the tail run's event is still the last
// one scheduled for retryDelay cycles from now.
func (c *Cache) tailJoinable() bool {
	at := c.eng.Now() + retryDelay
	return c.tail != nil && c.tail.at == at && c.eng.LastSeq(at) == c.tail.seq
}

// schedule puts r's event at cycle at and makes r the tail run.
func (c *Cache) schedule(r *run, at sim.Cycle) {
	c.eng.At(at, r.fire)
	r.at, r.seq = at, c.eng.LastSeq(at)
	c.tail = r
}

// poll is a run's event. It retries, in order, only the members that
// might issue (see next); the stretches of members between them would
// fail again and are re-parked in bulk where one-by-one re-parks would
// put them. A run none of whose members might issue moves on whole: into
// the tail run if that is joinable, else rescheduled by retryDelay. A
// member that fails again parks afresh, so the members behind a success
// join a run scheduled after that success's side effects.
func (r *run) poll() {
	c := r.c
	i, waits := len(r.ops), r.waits
	if r.stirred() {
		i, waits = r.next(0)
	}
	if i == len(r.ops) && !c.tailJoinable() {
		// Every member failed again as of now, so now is a valid start.
		r.state, r.logN = c.stateEpoch, c.logN
		c.schedule(r, c.eng.Now()+retryDelay)
		return
	}
	if c.tail == r {
		c.tail = nil
	}
	ops, start := r.ops, 0
	for i < len(ops) {
		if i > start {
			c.repark(ops[start:i], waits)
		}
		c.retry(ops[i])
		start = i + 1
		i, waits = r.next(start)
	}
	if start < len(ops) {
		c.repark(ops[start:], waits)
	}
	clear(ops)
	r.ops = ops[:0]
	c.runFree = append(c.runFree, r)
}

// stirred reports in O(1) whether anything that could let a member
// issue has happened since the run last polled: a state change for a
// setBusy member, and a line event or a free slot for a reservation
// fail.
func (r *run) stirred() bool {
	c := r.c
	logged := c.logN != r.logN
	return r.waits&(1<<setBusy) != 0 && r.state != c.stateEpoch ||
		r.waits&(1<<noMSHR) != 0 && (logged || !c.mshrsFull()) ||
		r.waits&(1<<noRegSlot) != 0 && (logged || !c.regFull())
}

// next returns the index of the first member at or after i that might
// issue if polled now, and the wait bits of the members it skips. A
// skipped member would fail again for the reason it last failed, so
// skipping it is exact:
//   - setBusy: no way or its evictability has changed (stateEpoch);
//   - noMSHR: every MSHR is still busy, and nothing can make the load's
//     words readable or give its line an MSHR without a line event:
//     installs, evictions and invalidations leave it missing;
//   - noRegSlot: the registration buffer is still full, and only a
//     store's new words, a line event, create the registration a store
//     to the line could merge with.
//
// A reservation fail may also issue when more line events have happened
// than the log holds, since then it cannot tell which lines saw one.
func (r *run) next(i int) (int, uint8) {
	c := r.c
	var open [setBusy + 1]bool // open[w]: a member that failed for w might issue, whatever its line
	open[setBusy] = r.state != c.stateEpoch
	open[noMSHR] = !c.mshrsFull()
	open[noRegSlot] = !c.regFull()
	n := c.logN - r.logN
	if n > logLen {
		open[noMSHR], open[noRegSlot] = true, true
	}
	// The tags of the lines logged since the run last polled, padded
	// with repeats of the last one.
	var tags [logLen]uint32
	for k := range tags {
		tags[k] = c.lineLog[(r.logN+min(uint64(k), n-1))%logLen]
	}
	var waits uint8
	logged := n > 0
	for ; i < len(r.ops); i++ {
		o := r.ops[i]
		w := o.wait & setBusy // equals o.wait (setBusy is the largest); the mask drops open's bounds check
		if open[w] {
			return i, waits
		}
		if logged && w != setBusy {
			t := lineTag(o.addr) // unrolled over logLen = 4 tags: a loop makes the scan ~1.7x slower
			if t == tags[0] || t == tags[1] || t == tags[2] || t == tags[3] {
				return i, waits
			}
		}
		waits |= 1 << w
	}
	return i, waits
}

// logLen is the number of line events the log holds. Four covers all
// but a few of the polls on the Fig. 5 cells that park, and keeps Cache
// in its allocation size class. run.next compares with the four tags
// unrolled; change the two together.
const logLen = 4

// lineTag is the low 32 bits of addr's line number. Two lines share a
// tag only 2^32 lines apart, and a shared tag costs a needless poll,
// never a missed one.
func lineTag(addr memdata.PAddr) uint32 { return uint32(addr / memdata.LineBytes) }

// logLine records a line event on addr; see lineLog.
func (c *Cache) logLine(addr memdata.PAddr) {
	c.lineLog[c.logN%logLen] = lineTag(addr)
	c.logN++
}

// mshrsFull and regFull report that a load needing a new MSHR, or a
// store needing a new registration slot, must wait.
func (c *Cache) mshrsFull() bool { return c.p.MSHRs > 0 && len(c.mshrs) >= c.p.MSHRs }
func (c *Cache) regFull() bool   { return c.p.MSHRs > 0 && len(c.pendingReg) >= c.p.MSHRs }

// chargeAccess charges one GPU L1 access of class e and its
// translation.
func (c *Cache) chargeAccess(e energy.Event) {
	if c.p.ChargeEnergy {
		c.acct.Add(energy.TLBAccess, 1)
		c.acct.Add(e, 1)
	}
}

// Load requests the masked words of the line at addr. done receives the
// word values (indexed by position within the line) once all are
// present. Hits complete after HitLat.
func (c *Cache) Load(addr memdata.PAddr, mask memdata.WordMask, done func(vals [memdata.WordsPerLine]uint32)) {
	if addr != memdata.LineOf(addr) {
		panic("cache: Load address not line-aligned")
	}
	if w := c.tryLoad(addr, mask, done); w != issued {
		o := c.newOp()
		o.kind, o.addr, o.mask, o.doneL = opRetryLoad, addr, mask, done
		c.park(o, w)
	}
}

// tryLoad issues the load unless it must wait, in which case it
// changes nothing.
func (c *Cache) tryLoad(addr memdata.PAddr, mask memdata.WordMask, done func(vals [memdata.WordsPerLine]uint32)) wait {
	if c.mshrsFull() && c.needsMSHR(addr, mask) {
		return noMSHR
	}
	l := c.allocate(addr)
	if l == nil {
		return setBusy
	}
	c.loadWith(l, addr, mask, done)
	return issued
}

// needsMSHR reports, without touching LRU state, whether a load would
// allocate a new MSHR: it misses (an absent line misses every word) and
// its line has no MSHR to merge into.
func (c *Cache) needsMSHR(addr memdata.PAddr, mask memdata.WordMask) bool {
	l := c.peekLine(addr)
	if l == nil {
		return mask != 0
	}
	return l.mshr == nil && mask&^l.readable() != 0
}

// loadWith runs the load against its resident line; tryLoad has
// established that a needed MSHR is free.
func (c *Cache) loadWith(l *line, addr memdata.PAddr, mask memdata.WordMask, done func(vals [memdata.WordsPerLine]uint32)) {
	readable := l.readable()
	missing := mask &^ readable
	fetch := memdata.MaskAll &^ readable
	if missing == 0 {
		c.hits.Inc()
		c.chargeAccess(energy.L1ReadHit)
		o := c.newOp()
		o.kind, o.vals, o.doneL = opDeliver, l.vals, done
		c.eng.Schedule(c.p.HitLat+c.p.ReadExtra, o.run)
		return
	}
	m := l.mshr // mirrors c.mshrs[addr]; the line outlives its MSHR
	if m == nil {
		if n := len(c.mshrFree); n > 0 {
			m = c.mshrFree[n-1]
			c.mshrFree = c.mshrFree[:n-1]
		} else {
			m = &mshr{}
		}
		m.born = c.eng.Now()
		c.stateEpoch++
		c.logLine(addr)
		c.mshrs[addr] = m
		l.mshr = m
		c.refreshBusy(addr, l)
		c.tsnk.Event(uint64(m.born), trace.KAccessBegin, uint64(addr), 0)
	}
	c.misses.Inc()
	c.tsnk.Event(uint64(c.eng.Now()), trace.KMiss, uint64(addr), 0)
	c.trMisses.Add(uint64(c.eng.Now()), 1)
	c.chargeAccess(energy.L1ReadMiss)
	// A miss fetches the whole line (line-granularity transfer, as in
	// the paper's line-based DeNovo): unlike the stash, the cache cannot
	// fetch compactly, which is exactly the Table 1 contrast.
	need := (missing | fetch) &^ m.requested
	m.waiters = append(m.waiters, waiter{mask: mask, done: done})
	if need != 0 {
		m.requested |= need
		coh.Send(c.net, &coh.Packet{
			Type: coh.ReadReq, Line: addr, Mask: need,
			SrcNode: c.node, SrcComp: c.comp,
			DstNode: llc.BankOf(addr, c.p.NumLLCBanks), DstComp: coh.ToLLC,
			MapIdx: -1,
		})
	}
}

// Store writes the masked words. done is called once the data is
// accepted locally (after HitLat); registration of newly owned words
// completes in the background and is awaited by Drain.
func (c *Cache) Store(addr memdata.PAddr, mask memdata.WordMask, vals [memdata.WordsPerLine]uint32, done func()) {
	if addr != memdata.LineOf(addr) {
		panic("cache: Store address not line-aligned")
	}
	if w := c.tryStore(addr, mask, &vals, done); w != issued {
		o := c.newOp()
		o.kind, o.addr, o.mask, o.vals, o.doneS = opRetryStore, addr, mask, vals, done
		c.park(o, w)
	}
}

// tryStore issues the store unless it must wait, in which case it
// changes nothing. A store waits when the registration buffer is full
// and its line has no registration in flight to merge with.
func (c *Cache) tryStore(addr memdata.PAddr, mask memdata.WordMask, vals *[memdata.WordsPerLine]uint32, done func()) wait {
	if c.regFull() {
		if _, merging := c.pendingReg[addr]; !merging {
			return noRegSlot
		}
	}
	l := c.allocate(addr)
	if l == nil {
		return setBusy
	}
	c.storeWith(l, addr, mask, vals, done)
	return issued
}

// storeWith runs the store against its resident line; tryStore has
// established that a needed registration slot is free.
func (c *Cache) storeWith(l *line, addr memdata.PAddr, mask memdata.WordMask, vals *[memdata.WordsPerLine]uint32, done func()) {
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(uint16(m))
		l.vals[i] = vals[i]
	}
	needReg := mask &^ l.owned()
	l.shared &^= needReg
	l.pend |= needReg
	if needReg != 0 {
		c.stateEpoch++
		c.logLine(addr)
		c.refreshBusy(addr, l)
	}
	if needReg == 0 {
		c.hits.Inc()
		c.chargeAccess(energy.L1WriteHit)
	} else {
		c.misses.Inc()
		c.tsnk.Event(uint64(c.eng.Now()), trace.KMiss, uint64(addr), 0)
		c.trMisses.Add(uint64(c.eng.Now()), 1)
		c.chargeAccess(energy.L1WriteMiss)
		pending := c.pendingReg[addr]
		newReq := needReg &^ pending
		c.pendingReg[addr] = pending | needReg
		if newReq != 0 {
			c.outstanding++
			coh.Send(c.net, &coh.Packet{
				Type: coh.RegReq, Line: addr, Mask: newReq,
				SrcNode: c.node, SrcComp: c.comp,
				DstNode: llc.BankOf(addr, c.p.NumLLCBanks), DstComp: coh.ToLLC,
				MapIdx: -1,
			})
		}
	}
	c.eng.Schedule(c.p.HitLat+c.p.WriteExtra, done)
}

// HandlePacket implements coh.Handler for LLC responses and remote
// requests.
func (c *Cache) HandlePacket(p *coh.Packet) {
	switch p.Type {
	case coh.DataResp:
		c.fill(p)
	case coh.RegAck:
		c.regAck(p)
	case coh.WBAck:
		c.wbuf.Release(p.Line, p.Mask)
		if !c.wbuf.Busy(p.Line) {
			s := &c.sets[c.setIndex(p.Line)]
			s.wbs--
			for i, a := range s.addrs {
				if a == p.Line {
					l := s.lines[i]
					l.wbWait = false
					if l.pend == 0 && l.mshr == nil {
						s.busyMask &^= 1 << uint(i)
					}
					break
				}
			}
		}
		c.stateEpoch++
		c.outstanding--
		c.chk.Progress()
		c.checkDrained()
	case coh.FwdReadReq:
		c.serveRemote(p)
	case coh.OwnerInv:
		c.ownerInv(p)
	default:
		panic("cache: unexpected packet " + p.Type.String())
	}
}

func (c *Cache) fill(p *coh.Packet) {
	c.chk.Progress()
	c.stateEpoch++
	c.logLine(p.Line)
	c.tsnk.Event(uint64(c.eng.Now()), trace.KFill, uint64(p.Line), 0)
	l := c.lookup(p.Line)
	if l != nil {
		take := p.Mask &^ l.readable() // only Invalid words accept fill data
		for m := take; m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(uint16(m))
			l.vals[i] = p.Vals[i]
		}
		l.shared |= take
	}
	m := c.mshrs[p.Line]
	if m == nil {
		return
	}
	m.requested &^= p.Mask
	if l == nil {
		// The line was somehow dropped; waiters will be answered from the
		// response values directly (possible only if evicted mid-flight,
		// which allocate() prevents; keep as a defensive path).
		return
	}
	readable := l.readable()
	remaining := m.waiters[:0]
	for _, w := range m.waiters {
		if w.mask&^readable == 0 {
			o := c.newOp()
			o.kind, o.vals, o.doneL = opDeliver, l.vals, w.done
			c.eng.Schedule(c.p.HitLat+c.p.ReadExtra, o.run)
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	if len(m.waiters) == 0 && m.requested == 0 {
		delete(c.mshrs, p.Line)
		l.mshr = nil
		c.refreshBusy(p.Line, l)
		c.retireMSHR(m)
		c.tsnk.Event(uint64(c.eng.Now()), trace.KAccessEnd, uint64(p.Line), 0)
		c.checkDrained()
	}
}

// retireMSHR returns a drained MSHR to the free list. The waiter slice
// keeps its capacity but drops its closures so they can be collected.
func (c *Cache) retireMSHR(m *mshr) {
	for i := range m.waiters {
		m.waiters[i] = waiter{}
	}
	m.waiters = m.waiters[:0]
	m.requested = 0
	c.mshrFree = append(c.mshrFree, m)
}

func (c *Cache) regAck(p *coh.Packet) {
	c.chk.Progress()
	c.stateEpoch++
	if l := c.lookup(p.Line); l != nil {
		take := p.Mask & l.pend
		l.pend &^= take
		l.reg |= take
		c.refreshBusy(p.Line, l)
	}
	rem := c.pendingReg[p.Line] &^ p.Mask
	if rem == 0 {
		delete(c.pendingReg, p.Line)
	} else {
		c.pendingReg[p.Line] = rem
	}
	c.outstanding--
	c.checkDrained()
}

func (c *Cache) serveRemote(p *coh.Packet) {
	c.remoteHits.Inc()
	var vals [memdata.WordsPerLine]uint32
	served := memdata.WordMask(0)
	if l := c.lookup(p.Line); l != nil {
		served = p.Mask & l.owned()
		for m := served; m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(uint16(m))
			vals[i] = l.vals[i]
		}
	}
	if rem := p.Mask &^ served; rem != 0 {
		bufMask, bufVals := c.wbuf.Lookup(p.Line, rem)
		for i := 0; i < memdata.WordsPerLine; i++ {
			if bufMask.Has(i) {
				vals[i] = bufVals[i]
				served |= memdata.Bit(i)
			}
		}
	}
	if served != p.Mask {
		panic(fmt.Sprintf("cache %d: forwarded read for words we no longer own (line %#x mask %v served %v)",
			c.node, uint64(p.Line), p.Mask, served))
	}
	if c.p.ChargeEnergy {
		c.acct.Add(energy.L1ReadHit, 1)
	}
	if c.p.ReadExtra > 0 {
		// Delay the response by the technology's read latency. The pooled
		// request packet is only valid during this call, so its addressing
		// fields are copied into the closure. All traffic from this cache
		// to the requester is DataResps delayed by the same constant, so
		// per-flow FIFO order is preserved.
		line, mask := p.Line, p.Mask
		reqNode, reqComp := p.ReqNode, p.ReqComp
		c.eng.Schedule(c.p.ReadExtra, func() {
			coh.Send(c.net, &coh.Packet{
				Type: coh.DataResp, Line: line, Mask: mask, Vals: vals,
				SrcNode: c.node, SrcComp: c.comp,
				DstNode: reqNode, DstComp: reqComp,
			})
		})
		return
	}
	coh.Send(c.net, &coh.Packet{
		Type: coh.DataResp, Line: p.Line, Mask: p.Mask, Vals: vals,
		SrcNode: c.node, SrcComp: c.comp,
		DstNode: p.ReqNode, DstComp: p.ReqComp,
	})
}

func (c *Cache) ownerInv(p *coh.Packet) {
	if l := c.lookup(p.Line); l != nil {
		l.reg &^= p.Mask // only Registered words drop to Invalid
	}
}

// SelfInvalidate drops all Shared words (DeNovo self-invalidation at a
// synchronization point); Registered words are kept (paper Section 4.3).
func (c *Cache) SelfInvalidate() {
	for i := range c.sets {
		for _, l := range c.sets[i].lines {
			l.shared = 0
		}
	}
}

// WritebackAll lazily writes back every Registered word and invalidates
// the cache. Used for end-of-run verification and by ablations. Sets
// are truncated, not released: the dead lines stay in each slice's
// capacity and are reused by later allocates.
func (c *Cache) WritebackAll() {
	c.stateEpoch++
	for i := range c.sets {
		s := &c.sets[i]
		for _, l := range s.lines {
			c.evict(s, l)
		}
		s.lines = s.lines[:0]
		s.addrs = s.addrs[:0]
		s.stamp = s.stamp[:0]
		s.busyMask = 0
	}
}

// Drain calls done once every outstanding registration, fill, and
// writeback has been acknowledged.
func (c *Cache) Drain(done func()) {
	c.drainWait = append(c.drainWait, done)
	c.checkDrained()
}

func (c *Cache) checkDrained() {
	if c.outstanding != 0 || len(c.mshrs) != 0 || len(c.drainWait) == 0 {
		return
	}
	waiters := c.drainWait
	c.drainWait = nil
	for _, w := range waiters {
		c.eng.Schedule(0, w)
	}
}

// SetChecker attaches the self-check layer; a nil checker (the
// default) costs one nil comparison on each completion.
func (c *Cache) SetChecker(chk *check.Checker) { c.chk = chk }

// SetTrace attaches an event sink. A nil sink (the default) leaves
// every instrumented site a nil-check no-op.
func (c *Cache) SetTrace(snk *trace.Sink) {
	c.tsnk = snk
	c.trMisses = snk.Series("misses")
	c.trWritebacks = snk.Series("writebacks")
}

// Outstanding reports in-flight transactions the cache is waiting on
// (fills, registrations, writebacks, replayed accesses), for the
// watchdog's work-pending gate.
func (c *Cache) Outstanding() int { return c.outstanding + len(c.mshrs) }

// CheckInvariants verifies the cache's structural invariants without
// mutating anything (in particular, without the LRU-refreshing lookup):
//
//   - every MSHR has work attached (requested words or waiters) and is
//     no older than ageBound (0 disables the age check);
//   - every word with a registration in flight per pendingReg is in
//     PendingReg state if its line is resident;
//   - a non-empty writeback buffer implies outstanding transactions;
//   - no line is resident twice within a set.
func (c *Cache) CheckInvariants(now, ageBound sim.Cycle) error {
	for addr, m := range c.mshrs {
		if m.requested == 0 && len(m.waiters) == 0 {
			return fmt.Errorf("mshr %#x: no requested words and no waiters", addr)
		}
		if ageBound > 0 && now-m.born > ageBound {
			return fmt.Errorf("mshr %#x: age %d exceeds bound %d (requested %016b, %d waiters)",
				addr, now-m.born, ageBound, m.requested, len(m.waiters))
		}
	}
	for addr, mask := range c.pendingReg {
		if mask == 0 {
			return fmt.Errorf("pendingReg %#x: empty mask", addr)
		}
		if l := c.peekLine(addr); l != nil {
			if bad := mask &^ l.pend; bad != 0 {
				i := bits.TrailingZeros16(uint16(bad))
				return fmt.Errorf("line %#x word %d: registration in flight but state is %v", addr, i, l.wordState(i))
			}
		}
	}
	if c.wbuf.Len() > 0 && c.outstanding == 0 {
		return fmt.Errorf("writeback buffer holds %d lines with nothing outstanding", c.wbuf.Len())
	}
	if err := c.wbuf.CheckInvariants(); err != nil {
		return err
	}
	wbs := make(map[int]int32)
	c.wbuf.Each(func(line memdata.PAddr) { wbs[c.setIndex(line)]++ })
	for si := range c.sets {
		s := &c.sets[si]
		if s.wbs != wbs[si] {
			return fmt.Errorf("set %d: wbs %d disagrees with %d buffered writebacks", si, s.wbs, wbs[si])
		}
		for i, l := range s.lines {
			if l.addr != s.addrs[i] {
				return fmt.Errorf("set %d way %d: tag array %#x disagrees with line %#x", si, i, s.addrs[i], l.addr)
			}
			if l.wbWait != c.wbuf.Busy(l.addr) {
				return fmt.Errorf("line %#x: wbWait %v disagrees with writeback buffer", l.addr, l.wbWait)
			}
			if want := l.pend != 0 || l.mshr != nil || l.wbWait; s.busyMask&(1<<uint(i)) != 0 != want {
				return fmt.Errorf("set %d way %d: busy bit disagrees with line %#x state", si, i, l.addr)
			}
			for j := i + 1; j < len(s.lines); j++ {
				if s.addrs[j] == l.addr {
					return fmt.Errorf("set %d: line %#x resident twice", si, l.addr)
				}
			}
		}
	}
	return nil
}

// CheckQuiescent verifies the cache has fully drained: no outstanding
// transactions, no MSHRs, no pending registrations, empty writeback
// buffer. It runs at kernel/phase boundaries.
func (c *Cache) CheckQuiescent() error {
	if c.outstanding != 0 {
		return fmt.Errorf("%d transactions still outstanding", c.outstanding)
	}
	if n := len(c.mshrs); n != 0 {
		return fmt.Errorf("%d mshrs still live", n)
	}
	if n := len(c.pendingReg); n != 0 {
		return fmt.Errorf("%d registrations still pending", n)
	}
	if n := c.wbuf.Len(); n != 0 {
		return fmt.Errorf("writeback buffer still holds %d lines", n)
	}
	return nil
}

// peekLine finds addr's resident line without refreshing LRU.
func (c *Cache) peekLine(addr memdata.PAddr) *line {
	s := &c.sets[c.setIndex(addr)]
	for i, a := range s.addrs {
		if a == addr {
			return s.lines[i]
		}
	}
	return nil
}

// OwnsWord reports whether the word at addr is held in Registered
// state, without mutating LRU order. Cross-structure ownership audits
// use it to confirm the LLC's registry against the cache's own state.
func (c *Cache) OwnsWord(addr memdata.PAddr) bool {
	l := c.peekLine(memdata.LineOf(addr))
	return l != nil && l.reg.Has(memdata.WordIndex(addr))
}

// DebugString renders the cache's transient state for failure dumps.
// Map iterations are sorted so the dump is deterministic.
func (c *Cache) DebugString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "outstanding=%d mshrs=%d pending-reg=%d wbuf=%d drain-waiters=%d",
		c.outstanding, len(c.mshrs), len(c.pendingReg), c.wbuf.Len(), len(c.drainWait))
	addrs := make([]memdata.PAddr, 0, len(c.mshrs))
	for a := range c.mshrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		m := c.mshrs[a]
		fmt.Fprintf(&sb, "\nmshr %#x requested=%016b waiters=%d born=%d", a, m.requested, len(m.waiters), m.born)
	}
	addrs = addrs[:0]
	for a := range c.pendingReg {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(&sb, "\npending-reg %#x mask=%016b", a, c.pendingReg[a])
	}
	return sb.String()
}

// Peek returns the cached value and state of the word at addr, for tests.
func (c *Cache) Peek(addr memdata.PAddr) (uint32, coh.State, bool) {
	l := c.lookup(memdata.LineOf(addr))
	if l == nil {
		return 0, coh.Invalid, false
	}
	w := memdata.WordIndex(addr)
	return l.vals[w], l.wordState(w), true
}
