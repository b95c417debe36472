package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"nord/internal/memsys"
	"nord/internal/noc"
	"nord/internal/sim"
	"nord/internal/topology"
)

// workloadInfo describes one named workload; why is recorded in
// BENCHMARK.json too.
type workloadInfo struct {
	name, why string
	build     func(seed int64) (workload, error)
}

var workloads = []workloadInfo{
	{"synth_sweep_8x8", "the tick kernel does nearly all the work, across the 4 designs x mesh/torus x low/mid/high load on 8x8", newSynthSweep},
	{"nord_large_grid", "the perf-centric planner dominates: NoRD and Conv_PG on 10x10 mesh/torus and 12x12 mesh, so setup shows the planner cliff", newLargeGrid},
	{"parsec_suite_4x4", "the paper's full-system suite: 10 PARSEC-like profiles x 4 designs, the only workload running memsys and the 3-class network", newParsecSuite},
	{"serve_mix", "in-process nordserved over loopback: 2 clients post 4x4 jobs, 2 of 3 cache hits, then one seeded NSGA-II search", newServeMix},
}

func workloadByName(name string) (workloadInfo, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadInfo{}, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(names, ", "))
}

// workload is one benchmark scenario, driven through the program's public
// entry points.
type workload interface {
	// setup does everything that precedes the first measured operation.
	setup(e *env) error
	// measure runs closed-loop operations for about budget and fills e's
	// metric maps.
	measure(e *env, budget time.Duration) error
	// close releases what setup acquired.
	close() error
}

// env is what a workload reports into.
type env struct {
	seed   int64
	tr     *tracer // nil when untraced
	tally  tally
	digest string // sha256 over the workload's canonical simulated results
	// e2e holds the end-to-end metrics except setup_s; wl the
	// workload-specific ones (workloadMetrics); layer the counters and
	// ratios that need no tracing (the rest come from spans and the
	// profile).
	e2e, wl, layer map[string]float64
}

func newEnv(seed int64, tr *tracer) *env {
	return &env{seed: seed, tr: tr, e2e: map[string]float64{}, wl: map[string]float64{}, layer: map[string]float64{}}
}

// grid is a router grid of one topology.
type grid struct {
	kind string
	w, h int
}

func (g grid) name() string { return fmt.Sprintf("%s%dx%d", g.kind, g.w, g.h) }

// primePlanners computes the perf-centric router set of every grid the
// workload's NoRD runs use, as a cold process must before its first run.
func primePlanners(e *env, parent int, grids []grid) error {
	for _, g := range grids {
		kind, err := topology.KindByName(g.kind)
		if err != nil {
			return err
		}
		id := e.tr.begin(parent, "topology.PerfCentricSetOn", "", g.name())
		set, err := sim.PerfCentricSetOn(kind, g.w, g.h)
		e.tr.end(id, 0)
		if err != nil {
			return fmt.Errorf("plan %s: %w", g.name(), err)
		}
		if len(set) == 0 {
			return fmt.Errorf("plan %s: empty perf-centric set", g.name())
		}
	}
	return nil
}

// simOp is one simulation call of a library-driven workload.
type simOp struct {
	synth *sim.SynthConfig
	suite *sim.WorkloadConfig
	instr float64 // simulated instructions (full-system runs)
}

func (op simOp) design() noc.Design {
	if op.synth != nil {
		return op.synth.Design
	}
	return op.suite.Design
}

func (op simOp) run() (sim.Result, error) {
	if op.synth != nil {
		return sim.RunSynthetic(*op.synth)
	}
	return sim.RunWorkload(*op.suite)
}

// nodeCycles is the simulated router-cycles of a finished run: warmup
// plus measured cycles from the config, times the routers; a full-system
// run measures until its last core retires (ExecTime).
func (op simOp) nodeCycles(res sim.Result) float64 {
	if op.synth != nil {
		c := op.synth
		return float64((c.Warmup+c.Measure)*c.Width) * float64(c.Height)
	}
	return float64(uint64(op.suite.Warmup)+res.ExecTime) * float64(res.Nodes)
}

// check applies the per-run correctness rules.
func (op simOp) check(res sim.Result, err error) error {
	switch {
	case err != nil:
		return err
	case res.Err != "":
		return errors.New(res.Err)
	case res.PacketsDelivered == 0:
		return errors.New("no packets delivered")
	case op.suite != nil && res.ExecTime == 0:
		return errors.New("zero execution time")
	}
	return nil
}

func (op simOp) label() string {
	if op.synth != nil {
		c := op.synth
		return fmt.Sprintf("%v %s%dx%d @%.2f", c.Design, c.Topology, c.Width, c.Height, c.Rate)
	}
	return fmt.Sprintf("%v %s", op.suite.Design, op.suite.Benchmark)
}

// simWorkload runs a fixed list of simulation calls in whole passes.
type simWorkload struct {
	grids []grid
	ops   []simOp
	// first keeps the first pass's results for the accuracy line.
	first []sim.Result
}

func (w *simWorkload) setup(e *env) error {
	id := e.tr.begin(0, "setup", "", "")
	defer e.tr.end(id, 0)
	return primePlanners(e, id, w.grids)
}

func (w *simWorkload) close() error { return nil }

// measure runs whole passes over the op list for about budget. Each op's result digest must repeat exactly on every
// pass; the workload digest covers the first pass.
func (w *simWorkload) measure(e *env, budget time.Duration) error {
	var (
		lat, passRate, passOps []float64
		digests                = make([]string, len(w.ops))
		packets, wakeups       float64
		instr, execCycles, l1  float64
		wall                   time.Duration
	)
	w.first = make([]sim.Result, len(w.ops))
	start := time.Now()
	for pass := 0; ; pass++ {
		var work float64
		p0 := time.Now()
		for i, op := range w.ops {
			name := "sim.RunSynthetic"
			if op.suite != nil {
				name = "sim.RunWorkload"
			}
			id := e.tr.begin(0, name, "", designNames[op.design()])
			t0 := time.Now()
			res, err := op.run()
			d := time.Since(t0)
			nc := op.nodeCycles(res)
			e.tr.end(id, nc)
			lat = append(lat, d.Seconds()*1e3)
			work += nc
			err = op.check(res, err)
			if err == nil {
				b, merr := json.Marshal(res)
				if merr != nil {
					return merr
				}
				if pass == 0 {
					digests[i] = digest(b)
				} else {
					err = checkDigest("repeat of "+op.label(), digest(b), digests[i])
				}
			}
			if !e.tally.record(err) || pass > 0 {
				continue
			}
			w.first[i] = res
			packets += float64(res.PacketsDelivered)
			wakeups += float64(res.Wakeups)
			instr += op.instr
			execCycles += float64(res.ExecTime)
			l1 += res.L1HitRate
		}
		pd := time.Since(p0)
		wall += pd
		passRate = append(passRate, work/pd.Seconds())
		passOps = append(passOps, float64(len(w.ops))/pd.Seconds())
		if stop(time.Since(start), pass+1, budget) {
			break
		}
	}
	e.digest = digest([]byte(strings.Join(digests, "\n")))
	e.e2e["sim_node_cycles_per_s"] = median(passRate)
	e.e2e["run_ms_gmean"] = geomean(lat)
	e.wl["run_p50_ms"] = percentile(lat, 0.5)
	e.wl["run_p90_ms"] = percentile(lat, 0.9)
	e.e2e["ops_per_s"] = median(passOps)
	passes := float64(len(passRate))
	e.layer["noc.packets_delivered"] = packets
	e.layer["noc.wakeups"] = wakeups
	e.layer["noc.host_ns_per_packet"] = wall.Seconds() * 1e9 / (packets * passes)
	if instr > 0 {
		e.wl["sim_instr_per_s"] = median(passOps) / float64(len(w.ops)) * instr
		e.layer["memsys.host_ns_per_instr"] = wall.Seconds() * 1e9 / (instr * passes)
		e.layer["memsys.exec_cycles"] = execCycles
		e.layer["memsys.l1_hit_rate"] = l1 / float64(len(w.ops))
	}
	return nil
}

// stop reports whether a loop of n equal rounds that has run for el
// should end: another round would end further from budget than now.
func stop(el time.Duration, n int, budget time.Duration) bool {
	return el+el/time.Duration(2*n) >= budget
}

// synthOps builds the closed-loop op list of a synthetic workload: every
// design x grid x rate, each with its own seed drawn from rng.
func synthOps(rng *rand.Rand, designs []noc.Design, grids []grid, rates []float64, warmup, measure int) []simOp {
	var ops []simOp
	for _, g := range grids {
		for _, d := range designs {
			for _, r := range rates {
				ops = append(ops, simOp{synth: &sim.SynthConfig{
					Design: d, Width: g.w, Height: g.h, Topology: g.kind,
					Pattern: "uniform", Rate: r, Warmup: warmup, Measure: measure,
					Seed: rng.Int63n(1 << 30),
				}})
			}
		}
	}
	return ops
}

func newSynthSweep(seed int64) (workload, error) {
	grids := []grid{{"mesh", 8, 8}, {"torus", 8, 8}}
	rng := rand.New(rand.NewSource(seed))
	return &simWorkload{
		grids: grids,
		ops:   synthOps(rng, sim.FullDesigns(), grids, []float64{0.02, 0.08, 0.16}, 1000, 3000),
	}, nil
}

func newLargeGrid(seed int64) (workload, error) {
	grids := []grid{{"mesh", 10, 10}, {"torus", 10, 10}, {"mesh", 12, 12}}
	rng := rand.New(rand.NewSource(seed))
	return &simWorkload{
		grids: grids,
		ops:   synthOps(rng, []noc.Design{noc.NoRD, noc.ConvPG}, grids, []float64{0.04}, 1000, 4000),
	}, nil
}

// suiteScale is the parsec_suite_4x4 instruction scale (1.0 = the
// paper's 60k instructions per core).
const suiteScale = 0.02

func newParsecSuite(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &simWorkload{grids: []grid{{"mesh", 4, 4}}}
	for _, b := range sim.Benchmarks() {
		prof, err := memsys.ProfileByName(b)
		if err != nil {
			return nil, err
		}
		quota := uint64(float64(prof.InstrPerCore) * suiteScale)
		s := rng.Int63n(1 << 30)
		for _, d := range sim.FullDesigns() {
			cfg := sim.WorkloadConfig{Design: d, Benchmark: b, Scale: suiteScale, Seed: s}.Filled()
			w.ops = append(w.ops, simOp{suite: &cfg, instr: float64(quota) * 16})
		}
	}
	return w, nil
}

// accuracyLine compares the suite's Figure 11/12 averages with the
// paper's. The model is not validated against the paper at this reduced
// scale, so the line is informational and never gated.
func (w *simWorkload) accuracyLine() string {
	sr := &sim.SuiteResult{Benchmarks: sim.Benchmarks(), Results: map[string]map[noc.Design]sim.Result{}}
	for i, op := range w.ops {
		if op.suite == nil {
			return ""
		}
		b := op.suite.Benchmark
		if sr.Results[b] == nil {
			sr.Results[b] = map[noc.Design]sim.Result{}
		}
		sr.Results[b][op.suite.Design] = w.first[i]
	}
	lat := sr.LatencyIncreaseAvg()[noc.NoRD]
	_, exec := sr.Fig12ExecTime()
	return fmt.Sprintf("accuracy (unvalidated model vs the paper's reference, scale %g, not gated): "+
		"NoRD packet latency %+.1f%% over No_PG (paper Fig. 11: +15.2%%), execution time %+.1f%% (paper Fig. 12: +3.9%%)",
		suiteScale, lat*100, (exec[noc.NoRD]-1)*100)
}
