package main

import (
	"sync"
	"time"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// The traced run measures layers from outside the program: these
// wrappers sit on the engines' public injection points
// (fuzz.Config.NewTarget, compliance.Runner.NewSim and the exec.Hook a
// target receives) and time or count the calls that cross them. They
// forward every call unchanged, so a traced run produces the same
// corpora and reports as an untraced one (checked by every traced run
// and by bench_test.go).

// hookSampleEvery is the OnInst sampling period: timing every call
// would cost more than the call itself.
const hookSampleEvery = 64

// countingHook forwards to the coverage collector, counting calls and
// timing every hookSampleEvery-th OnInst.
type countingHook struct {
	inner     exec.Hook
	insts     uint64
	edges     uint64
	sampled   uint64
	sampledNS int64
}

func (h *countingHook) OnInst(in *isa.Inst, hr *hart.Hart) {
	h.insts++
	if h.insts%hookSampleEvery != 0 {
		h.inner.OnInst(in, hr)
		return
	}
	t0 := time.Now()
	h.inner.OnInst(in, hr)
	h.sampledNS += time.Since(t0).Nanoseconds()
	h.sampled++
}

func (h *countingHook) OnEdge(edge uint32) {
	h.edges++
	h.inner.OnEdge(edge)
}

// runTally accumulates the outcomes of one simulator's runs.
type runTally struct {
	runs, insts, traps uint64
	ns                 int64
}

func (t *runTally) add(out sim.Outcome, d time.Duration) {
	t.runs++
	t.ns += d.Nanoseconds()
	t.insts += out.Insts
	t.traps += out.Traps
}

func (t *runTally) merge(o runTally) {
	t.runs += o.runs
	t.insts += o.insts
	t.traps += o.traps
	t.ns += o.ns
}

// timedSim wraps one simulator instance, timing Run and RunHooked and
// interposing countingHook between the executor and the caller's hook.
type timedSim struct {
	s     *sim.Simulator
	tally runTally
	hook  countingHook
}

func (t *timedSim) Run(bs []byte) sim.Outcome { return t.RunHooked(bs, nil) }

func (t *timedSim) RunHooked(bs []byte, hook exec.Hook) sim.Outcome {
	var h exec.Hook
	if hook != nil {
		t.hook.inner = hook
		h = &t.hook
	}
	t0 := time.Now()
	out := t.s.RunHooked(bs, h)
	t.tally.add(out, time.Since(t0))
	return out
}

// PredecodeStats forwards the decode-cache counters, so the engines'
// own predecode telemetry sees through the wrapper.
func (t *timedSim) PredecodeStats() exec.CacheStats { return t.s.PredecodeStats() }

// tracer builds timed simulators for one traced engine run and keeps
// them for the post-run readout. Its factories are safe for concurrent
// calls (the compliance engine's contract for NewSim).
type tracer struct {
	reg *obs.Registry // engine telemetry; also times predecode maintenance

	mu    sync.Mutex
	sims  []*timedSim
	newNS []int64 // sim.New durations
}

func newTracer() *tracer { return &tracer{reg: obs.NewRegistry()} }

func (tr *tracer) build(v *sim.Variant, p template.Platform) (*timedSim, error) {
	t0 := time.Now()
	s, err := sim.New(v, p)
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	// The engines wire this timer only into simulators they build
	// themselves; a wrapped target gets it here.
	s.PredecodeTimer = tr.reg.Stage(obs.StagePredecode)
	ts := &timedSim{s: s}
	tr.mu.Lock()
	tr.sims = append(tr.sims, ts)
	tr.newNS = append(tr.newNS, d.Nanoseconds())
	tr.mu.Unlock()
	return ts, nil
}

// newTarget is a fuzz.Config.NewTarget factory (the reference model,
// exactly what the fuzzer builds by default).
func (tr *tracer) newTarget(p template.Platform) (sim.HookedSim, error) {
	return tr.build(sim.Reference, p)
}

// newSim is a compliance.Runner.NewSim factory.
func (tr *tracer) newSim(v *sim.Variant, p template.Platform) (sim.Sim, error) {
	return tr.build(v, p)
}

// stageMeanNS is the mean duration of one obs stage, in nanoseconds.
func stageMeanNS(st map[string]obs.StageSummary, stage obs.Stage) float64 {
	s := st[stage.String()]
	return ratio(float64(s.TotalNS), float64(s.Count))
}

// simLayers fills the sim/exec/coverage per-layer metrics from every
// simulator the tracer built. Per-variant run times are keyed
// sim.run_ns.<variant>; hooked runs (the fuzzer's) are sim.run_hooked_ns.
func (tr *tracer) simLayers(layers map[string]float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var all, hooked runTally
	byVariant := map[string]*runTally{}
	var pre exec.CacheStats
	var hook countingHook
	for _, ts := range tr.sims {
		all.merge(ts.tally)
		pre.Add(ts.s.PredecodeStats())
		if ts.hook.inner != nil {
			hooked.merge(ts.tally)
			hook.insts += ts.hook.insts
			hook.edges += ts.hook.edges
			hook.sampled += ts.hook.sampled
			hook.sampledNS += ts.hook.sampledNS
			continue
		}
		name := ts.s.Variant.Name
		if byVariant[name] == nil {
			byVariant[name] = &runTally{}
		}
		byVariant[name].merge(ts.tally)
	}
	runs := float64(all.runs)
	layers["sim.insts_per_run"] = ratio(float64(all.insts), runs)
	layers["sim.traps_per_run"] = ratio(float64(all.traps), runs)
	layers["exec.predecode_hit_ratio"] = ratio(float64(pre.Hits), float64(pre.Hits+pre.Misses))
	layers["exec.fused_insts_per_run"] = ratio(float64(pre.Fused), runs)
	layers["exec.predecode_ns"] = stageMeanNS(tr.reg.StageSummaries(), obs.StagePredecode)
	var newNS int64
	for _, d := range tr.newNS {
		newNS += d
	}
	layers["sim.new_ms"] = ratio(float64(newNS), float64(len(tr.newNS))) / 1e6
	if hooked.runs > 0 {
		hr := float64(hooked.runs)
		layers["sim.run_hooked_ns"] = ratio(float64(hooked.ns), hr)
		layers["coverage.oninst_calls_per_run"] = ratio(float64(hook.insts), hr)
		layers["coverage.onedge_calls_per_run"] = ratio(float64(hook.edges), hr)
		layers["coverage.oninst_ns"] = ratio(float64(hook.sampledNS), float64(hook.sampled))
	}
	for name, t := range byVariant {
		layers["sim.run_ns."+name] = ratio(float64(t.ns), float64(t.runs))
	}
}
