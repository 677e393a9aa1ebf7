package main

import (
	"fmt"
	"math/rand/v2"

	"stash"
)

// Seed streams: each use of the seed draws from its own stream, so
// adding draws to one workload never shifts another's inputs.
const (
	streamPassOrder = iota + 1
	streamCold
	streamReplaySet
	streamReplayDraw
)

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// passOrder is the seeded order in which a simulator pass runs its n
// cells.
func passOrder(seed int64, pass, n int) []int {
	return newRNG(seed, streamPassOrder<<32|uint64(pass)).Perm(n)
}

// cheapPair is a micro workload on one organization that simulates in
// roughly 10-30 ms, so a closed loop over the service gets hundreds of
// requests per run. The storm cells (reuse on Scratch and Cache) and
// the pollution cells are left out: they would turn the service
// workloads into simulator benchmarks.
type cheapPair struct {
	workload string
	org      stash.MemOrg
}

var cheapPairs = []cheapPair{
	{"implicit", stash.ScratchGD},
	{"implicit", stash.Stash},
	{"on-demand", stash.ScratchGD},
	{"on-demand", stash.Cache},
	{"on-demand", stash.Stash},
	{"on-demand", stash.StashG},
	{"reuse", stash.ScratchGD},
	{"reuse", stash.Stash},
}

// Design-space axes of the generated cells, in the style of a
// HOPE-like exploration: a technology profile on the GPU L1s and the
// stash, a stash capacity point, and per-access energy scales. The
// energy scales are drawn from a continuous range, which is what makes
// a repeated fingerprint practically impossible; the generator still
// checks.
var (
	techProfiles = []string{"sram", "stt-mram", "edram"}
	stashCapsKB  = []int{16, 32, 64}
)

// cellGen draws never-seen design-space cells.
type cellGen struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newCellGen(seed int64, stream uint64) *cellGen {
	return &cellGen{rng: newRNG(seed, stream), seen: make(map[string]bool)}
}

func (g *cellGen) energyScale() float64 { return 0.5 + 7.5*g.rng.Float64() }

// cell returns a cell on the pair's workload and organization whose
// fingerprint this generator has not produced before.
func (g *cellGen) cell(p cheapPair) (stash.RunSpec, error) {
	for {
		cfg := stash.MicroConfig(p.org)
		profile := techProfiles[g.rng.IntN(len(techProfiles))]
		cfg.L1Tech = &stash.TechSpec{
			Profile:          profile,
			ReadEnergyScale:  g.energyScale(),
			WriteEnergyScale: g.energyScale(),
		}
		if p.org == stash.Stash || p.org == stash.StashG {
			cfg.StashTech = &stash.TechSpec{
				Profile:          profile,
				CapacityKB:       stashCapsKB[g.rng.IntN(len(stashCapsKB))],
				ReadEnergyScale:  g.energyScale(),
				WriteEnergyScale: g.energyScale(),
			}
		}
		spec := stash.RunSpec{Workload: p.workload, Config: cfg}
		if err := cfg.Validate(); err != nil {
			return stash.RunSpec{}, fmt.Errorf("generated cell %s: %w", spec, err)
		}
		fp, err := spec.Fingerprint()
		if err != nil {
			return stash.RunSpec{}, err
		}
		if !g.seen[fp] {
			g.seen[fp] = true
			return spec, nil
		}
	}
}

// coldRequest is one stashd-cold sweep: one never-seen cell per cheap
// pair, in pair order, so every request has the same composition.
func (g *cellGen) coldRequest() ([]stash.RunSpec, error) {
	specs := make([]stash.RunSpec, 0, len(cheapPairs))
	for _, p := range cheapPairs {
		spec, err := g.cell(p)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// Replay traffic: the fill holds replayVariants cells per cheap pair,
// and each request draws replayPerPair distinct variants of every pair
// (16 cells, the size of a Fig. 5 re-render) in a seeded order.
const (
	replayVariants = 4
	replayPerPair  = 2
)

// replaySet is the seeded cell set stashd-replay fills its node with.
// Cell i belongs to cheapPairs[i/replayVariants].
func replaySet(seed int64) ([]stash.RunSpec, error) {
	g := newCellGen(seed, streamReplaySet)
	specs := make([]stash.RunSpec, 0, len(cheapPairs)*replayVariants)
	for _, p := range cheapPairs {
		for v := 0; v < replayVariants; v++ {
			spec, err := g.cell(p)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// replayDraws yields the seeded stream of replay requests, each a list
// of indices into the replay set.
type replayDraws struct{ rng *rand.Rand }

func newReplayDraws(seed int64) *replayDraws {
	return &replayDraws{rng: newRNG(seed, streamReplayDraw)}
}

func (d *replayDraws) next() []int {
	req := make([]int, 0, len(cheapPairs)*replayPerPair)
	for p := range cheapPairs {
		for _, v := range d.rng.Perm(replayVariants)[:replayPerPair] {
			req = append(req, p*replayVariants+v)
		}
	}
	d.rng.Shuffle(len(req), func(i, j int) { req[i], req[j] = req[j], req[i] })
	return req
}
