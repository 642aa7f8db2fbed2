package main

import (
	"bytes"
	"reflect"
	"time"

	"rvnegtest/internal/compliance"
	"rvnegtest/internal/filter"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/obs"
)

// minSetups is the least number of set-ups a run times, so setup_s is a
// median even when few repetitions fit the budget.
const minSetups = 31

// fuzzRep is one exec-bounded one-shot campaign.
type fuzzRep struct {
	corpus [][]byte
	stats  fuzz.Stats
	run    time.Duration // host time of the timed call
	wall   time.Duration // wall time of the timed call
	steps  []time.Duration
}

func fuzzConfig(seed int64) fuzz.Config {
	cfg := fuzz.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// runFuzzCampaign runs one campaign of execs steps through Fuzzer.Run,
// timing the call. The fuzzer is built first; its construction time is
// returned as set-up.
func runFuzzCampaign(cfg fuzz.Config, execs uint64, mem *memCounter) (fuzzRep, time.Duration, error) {
	tm := startTimer()
	f, err := fuzz.New(cfg)
	_, setup := tm.stop()
	if err != nil {
		return fuzzRep{}, 0, err
	}
	mem.begin()
	tm = startTimer()
	err = f.Run(execs, 0)
	wall, host := tm.stop()
	mem.end()
	if err != nil {
		return fuzzRep{}, 0, err
	}
	return fuzzRep{corpus: f.Corpus(), stats: f.Stats(), run: host, wall: wall}, setup, nil
}

// runTracedCampaign is runFuzzCampaign with the tracer's target and hook
// wrappers and the engine's stage timers on, stepping through
// Fuzzer.Step so every step is timed.
func runTracedCampaign(cfg fuzz.Config, execs uint64, tr *tracer) (fuzzRep, error) {
	cfg.NewTarget = tr.newTarget
	cfg.Obs = tr.reg
	f, err := fuzz.New(cfg)
	if err != nil {
		return fuzzRep{}, err
	}
	steps := make([]time.Duration, 0, execs)
	tm := startTimer()
	for f.Execs() < execs {
		ts := time.Now()
		f.Step()
		steps = append(steps, time.Since(ts))
	}
	wall, host := tm.stop()
	return fuzzRep{corpus: f.Corpus(), stats: f.Stats(), run: host, wall: wall, steps: steps}, nil
}

// sameCampaign reports whether two campaigns produced identical corpora
// and deterministic stats.
func sameCampaign(a, b fuzzRep) bool {
	return sameCases(a.corpus, b.corpus) &&
		reflect.DeepEqual(a.stats.Deterministic(), b.stats.Deterministic())
}

func sameCases(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// runFuzzV3 is the Phase A workload: a one-shot campaign with the
// paper's v3 configuration on one worker, repeated from the same seed
// for the whole budget. Phase B passes over the resulting suite run
// outside the fuzz timing and give the workload's compliance throughput.
func runFuzzV3(rc runConfig) (*outcome, error) {
	o := newOutcome()
	cfg := fuzzConfig(rc.seed)
	var mem memCounter
	var setups []time.Duration
	for i := 0; i < minSetups-1; i++ {
		tm := startTimer()
		if _, err := fuzz.New(cfg); err != nil {
			return nil, err
		}
		_, d := tm.stop()
		setups = append(setups, d)
	}

	var reps []fuzzRep
	err := repeat(rc.untracedBudget(), func() error {
		r, setup, err := runFuzzCampaign(cfg, rc.size.fuzzExecs, &mem)
		if err != nil {
			return err
		}
		reps = append(reps, r)
		setups = append(setups, setup)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rates, wallRates []float64
	var execs float64
	for _, r := range reps {
		rates = append(rates, float64(r.stats.Execs)/r.run.Seconds())
		wallRates = append(wallRates, float64(r.stats.Execs)/r.wall.Seconds())
		execs += float64(r.stats.Execs)
		o.attempted += int64(r.stats.Execs)
		o.failed += int64(r.stats.HarnessFaults)
		o.check(sameCampaign(r, reps[0]), "campaigns from one seed differ")
	}
	note("fuzz execs/s per campaign %.0f (wall %.0f); set-up s %.4g", rates, wallRates, seconds(setups))
	o.e2e["fuzz_execs_per_s"] = median(rates)
	o.e2e["setup_s"] = median(seconds(setups))
	mem.perExec(o.e2e, execs)
	mem.runtimeLayers(o.layers, execs)

	first := reps[0]
	checkCorpus(o, cfg, first)
	suite := &compliance.Suite{Cases: first.corpus, Family: cfg.Family}
	passes := 9
	if rc.trace {
		passes = 1
	}
	var crates, wallCrates []float64
	for i := 0; i < passes; i++ {
		r := compliance.DefaultRunner()
		tm := startTimer()
		rep, err := r.Run(suite)
		wall, host := tm.stop()
		if err != nil {
			return nil, err
		}
		crates = append(crates, float64(r.Stats.Execs)/host.Seconds())
		wallCrates = append(wallCrates, float64(r.Stats.Execs)/wall.Seconds())
		o.attempted += int64(r.Stats.Execs)
		o.failed += int64(cellFailures(rep))
	}
	note("compliance runs/s per pass %.0f (wall %.0f)", crates, wallCrates)
	o.e2e["compliance_cases_per_s"] = median(crates)

	if rc.trace {
		tr := newTracer()
		var traced []fuzzRep
		err := repeat(rc.budget/2, func() error {
			r, err := runTracedCampaign(cfg, rc.size.fuzzExecs, tr)
			if err != nil {
				return err
			}
			traced = append(traced, r)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var steps []time.Duration
		var runs []float64
		for _, r := range traced {
			o.check(sameCampaign(r, first), "traced campaign differs from the untraced one")
			steps = append(steps, r.steps...)
			runs = append(runs, r.run.Seconds())
		}
		o.layers["obs.trace_overhead_frac"] = median(runs)/median(runSeconds(reps)) - 1
		o.layers["fuzz.step_ns_p50"] = percentile(steps, 50)
		o.layers["fuzz.step_ns_p99"] = percentile(steps, 99)
		fuzzLayers(o.layers, tr.reg.StageSummaries(), traced[0].stats)
		o.layers["resilience.harness_faults"] = float64(traced[0].stats.HarnessFaults)
		tr.simLayers(o.layers)
	}
	return o, nil
}

// runSeconds lists the host seconds of each campaign's timed call.
func runSeconds(reps []fuzzRep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.run.Seconds()
	}
	return out
}

// fuzzLayers fills the fuzz, filter and coverage-merge metrics from a
// fuzzer's stage timers and stats.
func fuzzLayers(layers map[string]float64, st map[string]obs.StageSummary, s fuzz.Stats) {
	execs := float64(s.Execs)
	layers["fuzz.mutate_ns"] = stageMeanNS(st, obs.StageMutate)
	layers["fuzz.collect_ratio"] = ratio(float64(s.TestCases), execs)
	layers["filter.check_ns"] = stageMeanNS(st, obs.StageFilter)
	layers["filter.accept_ratio"] = ratio(execs-float64(s.Dropped), execs)
	layers["coverage.merge_ns"] = stageMeanNS(st, obs.StageCoverageEval)
}

// checkCorpus verifies a campaign's corpus outside the timed region:
// every case passes a fresh static filter, and replaying the corpus
// reaches exactly the coverage the campaign reported.
func checkCorpus(o *outcome, cfg fuzz.Config, r fuzzRep) {
	flt := &filter.Filter{MaxLen: cfg.MaxLen}
	for i, c := range r.corpus {
		if res := flt.Check(c); !res.Accepted {
			o.check(false, "corpus case %d rejected by a fresh filter: %v", i, res.Reason)
			break
		}
	}
	bits, err := fuzz.CoverageBits(r.corpus, cfg)
	o.check(err == nil, "replaying the corpus: %v", err)
	o.check(bits == r.stats.CovBits, "corpus replay reaches %d coverage bits, campaign reported %d", bits, r.stats.CovBits)
	o.check(len(r.corpus) > 0, "empty corpus")
}

// cellFailures counts the report's harness failures: harness faults and
// cases skipped by a tripped breaker or a failed adapter. Cases skipped
// because the reference crashed or timed out are not failures: the
// riscvOVPsim reference carries a seeded defect, and its outcomes are
// findings like any simulator's (compliance.ref_skip_ratio reports them).
func cellFailures(rep *compliance.Report) int {
	n := 0
	for _, row := range rep.Cells {
		for _, c := range row {
			n += c.SkippedUnhealthy + c.SkippedAdapter + c.HarnessFaults
		}
	}
	return n
}
