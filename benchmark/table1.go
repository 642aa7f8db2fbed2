package main

import (
	"time"

	"rvnegtest/internal/compliance"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/sim"
)

// table1Sets is the number of times a table1 run generates its suite.
// Generation is the expensive part of set-up (a whole fuzz campaign),
// so setup_s is the median of this many rather than of minSetups.
const table1Sets = 3

// generateSuite is the table1 set-up: a v3 campaign from the seed whose
// corpus becomes the suite (what core.GenerateSuite does, with the
// Fuzzer.Run call timed from outside).
func generateSuite(rc runConfig) (*compliance.Suite, fuzzRep, time.Duration, error) {
	cfg := fuzzConfig(rc.seed)
	tm := startTimer()
	var mem memCounter
	r, _, err := runFuzzCampaign(cfg, rc.size.fuzzExecs, &mem)
	if err != nil {
		return nil, fuzzRep{}, 0, err
	}
	suite := &compliance.Suite{Cases: r.corpus, Family: cfg.Family}
	_, setup := tm.stop()
	return suite, r, setup, nil
}

// tableRun is one timed Runner.Run pass.
type tableRun struct {
	rep    *compliance.Report
	render string
	execs  int
	dur    time.Duration // host time
	wall   time.Duration
}

func runTable(r *compliance.Runner, suite *compliance.Suite, mem *memCounter) (tableRun, error) {
	mem.begin()
	tm := startTimer()
	rep, err := r.Run(suite)
	wall, host := tm.stop()
	mem.end()
	if err != nil {
		return tableRun{}, err
	}
	return tableRun{rep: rep, render: rep.Render(), execs: r.Stats.Execs, dur: host, wall: wall}, nil
}

// runTable1 is the Phase B workload: the paper's Table I runner
// (reference plus four simulators under test, three configurations,
// one worker, unhooked) over a suite generated in set-up, repeated for
// the whole budget. Its fuzz throughput is the set-up campaign's.
func runTable1(rc runConfig) (*outcome, error) {
	o := newOutcome()
	sets := table1Sets
	if rc.trace {
		sets = 1 // setup_s is not reported by a traced run
	}
	var suite *compliance.Suite
	var setups []time.Duration
	var fuzzRates, genWall []float64
	for i := 0; i < sets; i++ {
		s, r, d, err := generateSuite(rc)
		if err != nil {
			return nil, err
		}
		if suite == nil {
			suite = s
		} else {
			o.check(sameCases(s.Cases, suite.Cases), "suites generated from one seed differ")
		}
		setups = append(setups, d)
		fuzzRates = append(fuzzRates, float64(r.stats.Execs)/r.run.Seconds())
		genWall = append(genWall, float64(r.stats.Execs)/r.wall.Seconds())
		o.attempted += int64(r.stats.Execs)
		o.failed += int64(r.stats.HarnessFaults)
	}
	note("fuzz execs/s per campaign %.0f (wall %.0f); set-up s %.4g", fuzzRates, genWall, seconds(setups))
	o.e2e["setup_s"] = median(seconds(setups))
	o.e2e["fuzz_execs_per_s"] = median(fuzzRates)

	var mem memCounter
	var runs []tableRun
	err := repeat(rc.untracedBudget(), func() error {
		t, err := runTable(compliance.DefaultRunner(), suite, &mem)
		if err != nil {
			return err
		}
		runs = append(runs, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rates, wallRates, durs []float64
	var execs float64
	for _, t := range runs {
		rates = append(rates, float64(t.execs)/t.dur.Seconds())
		wallRates = append(wallRates, float64(t.execs)/t.wall.Seconds())
		durs = append(durs, t.dur.Seconds())
		execs += float64(t.execs)
		o.attempted += int64(t.execs)
		o.failed += int64(cellFailures(t.rep))
		o.check(t.render == runs[0].render, "reports of one suite differ between passes")
	}
	note("compliance runs/s per pass %.0f (wall %.0f)", rates, wallRates)
	o.e2e["compliance_cases_per_s"] = median(rates)
	mem.perExec(o.e2e, execs)
	mem.runtimeLayers(o.layers, execs)

	first := runs[0]
	checkDefects(o, first.rep)
	oracle := compliance.DefaultRunner()
	oracle.DisablePredecode = true
	orep, err := oracle.Run(suite)
	if err != nil {
		return nil, err
	}
	o.check(orep.Render() == first.render, "report differs from the classical-decode (DisablePredecode) run")

	if rc.trace {
		tr := newTracer()
		var traced []tableRun
		var tmem memCounter
		err := repeat(rc.budget/2, func() error {
			r := compliance.DefaultRunner()
			r.NewSim = tr.newSim
			r.Obs = tr.reg
			t, err := runTable(r, suite, &tmem)
			if err != nil {
				return err
			}
			traced = append(traced, t)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var tdurs []float64
		for _, t := range traced {
			o.check(t.render == first.render, "traced report differs from the untraced one")
			tdurs = append(tdurs, t.dur.Seconds())
		}
		o.layers["obs.trace_overhead_frac"] = median(tdurs)/median(durs) - 1
		tr.simLayers(o.layers)
		complianceLayers(o.layers, tr.reg.StageSummaries(), first.rep)
	}
	return o, nil
}

// complianceLayers fills the compliance-engine metrics from its stage
// timers and a report.
func complianceLayers(layers map[string]float64, st map[string]obs.StageSummary, rep *compliance.Report) {
	layers["compliance.exec_ns"] = stageMeanNS(st, obs.StageExecute)
	layers["compliance.compare_ns"] = stageMeanNS(st, obs.StageSignatureCompare)
	var mismatches, compared, refSkipped int
	for _, row := range rep.Cells {
		for _, c := range row {
			if !c.Supported {
				continue
			}
			mismatches += c.Mismatches
			refSkipped += c.Skipped
			compared += rep.Cases - c.Skipped - c.SkippedUnhealthy - c.SkippedAdapter
		}
	}
	layers["compliance.mismatch_ratio"] = ratio(float64(mismatches), float64(compared))
	layers["compliance.ref_skip_ratio"] = ratio(float64(refSkipped), float64(compared+refSkipped))
}

// checkDefects checks that every simulator with a seeded defect the
// user-level suite can reach shows it: signature mismatches for Spike,
// VP and GRIFT, decoder crashes for sail-riscv.
func checkDefects(o *outcome, rep *compliance.Report) {
	for j, name := range rep.Sims {
		var mismatches, crashes int
		for _, row := range rep.Cells {
			mismatches += row[j].Mismatches
			crashes += row[j].Crashes
		}
		switch name {
		case sim.Spike.Name, sim.VP.Name, sim.Grift.Name:
			o.check(mismatches > 0, "no mismatches found for %s", name)
		case sim.Sail.Name:
			o.check(crashes > 0, "no crashes found for %s", name)
		}
	}
}
