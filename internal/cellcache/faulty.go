package cellcache

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjectedFault is the base error every fault the Faulty engine
// injects wraps, so tests and callers can tell injected failures from
// real ones with errors.Is.
var ErrInjectedFault = errors.New("cellcache: injected storage fault")

// FaultProfile describes the deterministic fault stream a Faulty
// engine injects. Probabilities are evaluated against a
// splitmix64-derived pseudo-random stream seeded by Seed (the same
// discipline as internal/faults), so a given profile always injects
// the same faults in the same operation order and every failure it
// uncovers is exactly reproducible. The zero profile injects nothing.
type FaultProfile struct {
	// Seed selects the pseudo-random stream. Two engines with equal
	// profiles fail identically.
	Seed uint64
	// PutErr is the probability in [0,1] that a Put fails with an I/O
	// error (nothing is written).
	PutErr float64
	// GetErr is the probability that a Get fails to read and reports a
	// miss — the engine contract for unreadable entries.
	GetErr float64
	// Torn is the probability that a Put persists only a prefix of the
	// value yet reports success — a torn write. The cache's frame
	// length check (and the engines' checksums) must catch it on read.
	Torn float64
	// Latency is the maximum extra latency injected per operation,
	// drawn uniformly; zero injects none.
	Latency time.Duration
	// DownFirst fails the first DownFirst operations outright — a
	// storage tier that is sick at startup and then heals, for breaker
	// recovery tests.
	DownFirst int
	// DownEvery and DownFor arm cyclic unavailability windows: after
	// every DownEvery healthy operations the next DownFor operations
	// fail outright, modelling transient outages that recur and heal.
	DownEvery, DownFor int
}

// Enabled reports whether the profile injects any fault at all.
func (p FaultProfile) Enabled() bool {
	return p.PutErr > 0 || p.GetErr > 0 || p.Torn > 0 || p.Latency > 0 ||
		p.DownFirst > 0 || (p.DownEvery > 0 && p.DownFor > 0)
}

// Faulty wraps an Engine and injects storage faults per a
// FaultProfile. It is composed from the -cache spec grammar as
// "faulty+<engine>://..." (see Spec) and is the storage half of
// stashd's chaos harness: everything above it — frame validation,
// circuit breaker, degraded serving — must hold up no matter what it
// does. Heal stops all injection, after which the inner engine must
// serve (and replay) exactly as if the faults never happened.
type Faulty struct {
	inner Engine

	mu     sync.Mutex
	prof   FaultProfile
	rng    uint64 // splitmix64 state
	ops    int    // operations seen (Get + Put)
	healed bool

	putErrs, getErrs, torn, downOps uint64
}

// NewFaulty wraps inner with the profile's fault stream.
func NewFaulty(inner Engine, p FaultProfile) *Faulty {
	return &Faulty{inner: inner, prof: p, rng: p.Seed}
}

// Heal permanently stops fault injection; the wrapper becomes
// transparent. It is a test hook: only tests call it.
func (f *Faulty) Heal() {
	f.mu.Lock()
	f.healed = true
	f.mu.Unlock()
}

// splitmix64 advances the stream (reference increments, as in
// internal/faults).
func (f *Faulty) splitmix64() uint64 {
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// draw returns the next uniform value in [0,1).
func (f *Faulty) draw() float64 {
	return float64(f.splitmix64()>>11) / float64(1<<53)
}

// op accounts one operation and decides its fate under the profile:
// sleep is the injected latency, down reports an outage window, and
// fault fires with probability prob. Called with f.mu held.
func (f *Faulty) op(prob float64) (sleep time.Duration, down, fault bool) {
	if f.healed {
		return 0, false, false
	}
	n := f.ops
	f.ops++
	if f.prof.Latency > 0 {
		sleep = time.Duration(f.draw() * float64(f.prof.Latency))
	}
	if n < f.prof.DownFirst {
		f.downOps++
		return sleep, true, false
	}
	if f.prof.DownEvery > 0 && f.prof.DownFor > 0 {
		cycle := f.prof.DownEvery + f.prof.DownFor
		if (n-f.prof.DownFirst)%cycle >= f.prof.DownEvery {
			f.downOps++
			return sleep, true, false
		}
	}
	if prob > 0 && f.draw() < prob {
		return sleep, false, true
	}
	return sleep, false, false
}

// Get injects read faults (outage windows and unreadable entries read
// as misses, per the Engine contract) before delegating.
func (f *Faulty) Get(key string) ([]byte, bool) {
	f.mu.Lock()
	sleep, down, fault := f.op(f.prof.GetErr)
	if down || fault {
		f.getErrs++
	}
	f.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if down || fault {
		return nil, false
	}
	return f.inner.Get(key)
}

// Put injects write faults: outright I/O errors, outage windows, and
// torn writes that persist a prefix yet report success.
func (f *Faulty) Put(key string, val []byte) error {
	f.mu.Lock()
	sleep, down, fault := f.op(f.prof.PutErr)
	cut := -1
	if !down && !fault && !f.healed && f.prof.Torn > 0 && f.draw() < f.prof.Torn {
		cut = int(f.splitmix64() % uint64(len(val)+1))
		f.torn++
	}
	if down || fault {
		f.putErrs++
	}
	f.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if down {
		return fmt.Errorf("%w: engine unavailable", ErrInjectedFault)
	}
	if fault {
		return fmt.Errorf("%w: put I/O error", ErrInjectedFault)
	}
	if cut >= 0 {
		// The torn prefix is persisted and Put lies about success —
		// the read path's integrity checks have to catch this.
		return f.inner.Put(key, val[:cut])
	}
	return f.inner.Put(key, val)
}

func (f *Faulty) Delete(key string)            { f.inner.Delete(key) }
func (f *Faulty) Len() int                     { return f.inner.Len() }
func (f *Faulty) Keys(yield func(string) bool) { f.inner.Keys(yield) }
func (f *Faulty) Close() error                 { return f.inner.Close() }

// Counts reports how many faults have fired. It is a test hook: only
// tests call it.
func (f *Faulty) Counts() (putErrs, getErrs, torn, downOps uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.putErrs, f.getErrs, f.torn, f.downOps
}
