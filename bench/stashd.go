package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"stash"
	"stash/internal/serve"
)

// coldService is stashd-cold: every request is one never-seen
// design-space cell per cheap pair, so every cell misses the cache,
// simulates, and is written to the pairtree store.
type coldService struct {
	gen *cellGen
	// cycles and walls are the simulated cycles and the node's host
	// time of every cell checked since set-up ended.
	cycles, walls []float64
}

func runCold(cfg runConfig, rep *report) error {
	svc := &coldService{gen: newCellGen(cfg.seed, streamCold)}
	return runService(svc, traceOpts{handlerRounds: 10, engineTable: true}, cfg, rep)
}

// setup boots a node and sends one warm-up request of fresh cells.
func (c *coldService) setup(rep *report) (*node, error) {
	n, err := startNode()
	if err != nil {
		return nil, err
	}
	req, err := c.next()
	if err == nil {
		var r reply
		if r, err = n.sweep(req.body); err == nil {
			rep.cells(req.specs, req.check(r.lines))
		}
	}
	if err != nil {
		return nil, errors.Join(err, n.stop())
	}
	c.cycles, c.walls = c.cycles[:0], c.walls[:0]
	return n, nil
}

func (c *coldService) next() (request, error) {
	specs, err := c.gen.coldRequest()
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(serve.SweepRequest{Specs: specs})
	if err != nil {
		return request{}, err
	}
	check := func(lines [][]byte) []error {
		errs := make([]error, len(specs))
		for i := 0; i < len(specs) && i < len(lines); i++ {
			h, err := checkLine(specs[i], lines[i])
			if errs[i] = err; err == nil {
				c.cycles = append(c.cycles, float64(h.Result.Cycles))
				c.walls = append(c.walls, float64(h.WallNS)/1e9)
			}
		}
		return checkCount(specs, lines, errs)
	}
	return request{body: body, specs: specs, check: check}, nil
}

// checkPhase requires every cell of the phase to have missed the cache
// and been simulated: a hit would mean the generator repeated a cell.
func (c *coldService) checkPhase(st *loopStats, rep *report) {
	sims := int(st.delta("stashd_cells_simulated_total"))
	misses := int(st.delta("stashd_cache_misses_total"))
	hits := int(st.delta("stashd_cache_hits_total"))
	if sims != st.cells || misses != st.cells || hits != 0 {
		rep.fail(max(hits, abs(st.cells-sims), 1),
			fmt.Errorf("%d cells requested, but the node simulated %d with %d misses and %d hits", st.cells, sims, misses, hits))
	}
}

// setSim reports the node's own simulation speed on the phase's cells:
// each line's cycles over the host time the node spent simulating it.
func (c *coldService) setSim(_ *loopStats, rep *report) {
	var cycles, wall float64
	rates := make([]float64, len(c.cycles))
	for i := range c.cycles {
		cycles += c.cycles[i]
		wall += c.walls[i]
		rates[i] = c.cycles[i] / c.walls[i]
	}
	rep.set("sim_cycles_per_s", cycles/wall)
	rep.set("sim_cycles_per_s_geomean", geomean(rates))
}

// replayService is stashd-replay: set-up fills the node with a seeded
// cell set, and every timed request is a 16-cell sweep drawn from it,
// so every cell is a memory-tier hit and no simulation runs.
type replayService struct {
	set   []stash.RunSpec
	frags [][]byte // each set cell's spec JSON, for assembling bodies
	draws *replayDraws
	// lines are the current node's fill-time lines and cycles the
	// cells' simulated cycles, by set index. served holds the
	// simulated cycles of every request checked since set-up ended.
	lines  [][]byte
	cycles []float64
	served []float64
}

func runReplay(cfg runConfig, rep *report) error {
	set, err := replaySet(cfg.seed)
	if err != nil {
		return err
	}
	r := &replayService{
		set:    set,
		frags:  make([][]byte, len(set)),
		draws:  newReplayDraws(cfg.seed),
		lines:  make([][]byte, len(set)),
		cycles: make([]float64, len(set)),
	}
	for i, s := range set {
		if r.frags[i], err = json.Marshal(s); err != nil {
			return err
		}
	}
	return runService(r, traceOpts{handlerRounds: 200}, cfg, rep)
}

func (r *replayService) body(idx []int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"specs":[`)
	for k, i := range idx {
		if k > 0 {
			b.WriteByte(',')
		}
		b.Write(r.frags[i])
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// setup boots a node and fills it with the whole set in one sweep.
func (r *replayService) setup(rep *report) (*node, error) {
	n, err := startNode()
	if err != nil {
		return nil, err
	}
	all := make([]int, len(r.set))
	for i := range all {
		all[i] = i
	}
	reply, err := n.sweep(r.body(all))
	if err != nil {
		return nil, errors.Join(err, n.stop())
	}
	errs := make([]error, len(r.set))
	for i := 0; i < len(r.set) && i < len(reply.lines); i++ {
		h, err := checkLine(r.set[i], reply.lines[i])
		if errs[i] = err; err == nil {
			r.lines[i] = reply.lines[i]
			r.cycles[i] = float64(h.Result.Cycles)
		}
	}
	rep.cells(r.set, checkCount(r.set, reply.lines, errs))
	r.served = r.served[:0]
	return n, nil
}

func (r *replayService) next() (request, error) {
	idx := r.draws.next()
	specs := make([]stash.RunSpec, len(idx))
	for k, i := range idx {
		specs[k] = r.set[i]
	}
	check := func(lines [][]byte) []error {
		errs := make([]error, len(idx))
		var cycles float64
		for k := 0; k < len(idx) && k < len(lines); k++ {
			if !bytes.Equal(lines[k], r.lines[idx[k]]) {
				errs[k] = errors.New("replayed line differs from its fill-time line")
			}
			cycles += r.cycles[idx[k]]
		}
		r.served = append(r.served, cycles)
		return checkCount(specs, lines, errs)
	}
	return request{body: r.body(idx), specs: specs, check: check}, nil
}

// checkPhase requires every cell of the phase to have been a
// memory-tier hit, with no simulation.
func (r *replayService) checkPhase(st *loopStats, rep *report) {
	memHits := int(st.delta("stashd_cache_mem_hits_total"))
	misses := int(st.delta("stashd_cache_misses_total"))
	sims := int(st.delta("stashd_cells_simulated_total"))
	if memHits != st.cells || misses != 0 || sims != 0 {
		rep.fail(max(misses, sims, abs(st.cells-memHits), 1),
			fmt.Errorf("%d cells requested, but the node served %d memory hits with %d misses and %d simulations", st.cells, memHits, misses, sims))
	}
}

// setSim reports the simulated cycles the node serves per second of
// the timed phase, where every cell is a replay: the phase's cells'
// cycles over its wall time, and the geometric mean over requests of a
// request's cells' cycles over its latency. No simulation runs in the
// phase, so both move with the service path, not the simulator.
func (r *replayService) setSim(st *loopStats, rep *report) {
	rates := make([]float64, len(r.served))
	var cycles float64
	for i, c := range r.served {
		cycles += c
		rates[i] = c / st.latencies[i]
	}
	rep.set("sim_cycles_per_s", cycles/st.wall.Seconds())
	rep.set("sim_cycles_per_s_geomean", geomean(rates))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
