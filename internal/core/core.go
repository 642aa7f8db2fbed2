// Package core orchestrates the paper's two-phase pipeline: Phase A
// generates a compliance test suite with the coverage-guided fuzzer, and
// Phase B runs it across simulators, comparing signatures against the
// reference. It also provides the drivers for the paper's experiments
// (Fig. 4 growth curves and Table I).
package core

import (
	"context"
	"fmt"
	"time"

	"rvnegtest/internal/compliance"
	"rvnegtest/internal/coverage"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/template"
)

// Generate runs Phase A as a fuzz.Campaign and assembles its suite. It is
// the one place a generated suite takes shape — the # origin: line and,
// for trap suites, the directed privileged probes appended after any
// minimization — so the CLIs, the daemon, compliance generation and the
// library all write the same bytes for the same campaign. On error the
// suite is nil; an interrupted campaign returns fuzz.ErrInterrupted with
// the partial per-worker stats.
func Generate(ctx context.Context, cfg fuzz.Config, cc fuzz.CampaignConfig) (*compliance.Suite, []fuzz.Stats, error) {
	cases, stats, err := fuzz.Campaign(ctx, cfg, cc)
	if err != nil {
		return nil, stats, err
	}
	var execs uint64
	for _, st := range stats {
		execs += st.Execs
	}
	suite := &compliance.Suite{
		Cases:  cases,
		Family: cfg.Family,
		Origin: fmt.Sprintf("parallel fuzzer workers=%d seed=%d execs=%d", len(stats), cfg.Seed, execs),
	}
	if cfg.Family == template.FamilyTrap {
		// The directed probes bypass the filter (they write mtvec and
		// mstatus) and guarantee each seeded privileged-defect class at
		// least one witnessing case regardless of the fuzzing budget.
		suite.Cases = append(suite.Cases, fuzz.TrapDirectedCases()...)
	}
	return suite, stats, nil
}

// GenerateSuite runs Phase A on one worker, bounded by execution count
// and/or wall time, returning the collected test suite.
func GenerateSuite(cfg fuzz.Config, maxExecs uint64, maxDur time.Duration) (*compliance.Suite, fuzz.Stats, error) {
	suite, stats, err := Generate(context.Background(), cfg,
		fuzz.CampaignConfig{Workers: 1, ExecsEach: maxExecs, WallBudget: maxDur})
	if err != nil {
		return nil, fuzz.Stats{}, err
	}
	return suite, stats[0], nil
}

// GrowthResult is one configuration's outcome in the Fig. 4 experiment.
type GrowthResult struct {
	Name  string
	Stats fuzz.Stats
}

// GrowthExperiment reproduces Fig. 4: the v0..v3 coverage configurations
// fuzzing with the same budget; the trace in each result is the
// test-cases-vs-executions curve.
func GrowthExperiment(maxExecs uint64, maxDur time.Duration, seed int64) ([]GrowthResult, error) {
	var out []GrowthResult
	for _, name := range []string{"v0", "v1", "v2", "v3"} {
		opts, _ := coverage.ByName(name)
		cfg := fuzz.DefaultConfig()
		cfg.Coverage = opts
		cfg.Seed = seed
		_, stats, err := fuzz.Campaign(context.Background(), cfg,
			fuzz.CampaignConfig{Workers: 1, ExecsEach: maxExecs, WallBudget: maxDur})
		if err != nil {
			return nil, err
		}
		out = append(out, GrowthResult{Name: name, Stats: stats[0]})
	}
	return out, nil
}

// Pipeline runs both phases: suite generation with the given fuzzing
// configuration and budget, then compliance testing with the runner.
func Pipeline(cfg fuzz.Config, maxExecs uint64, maxDur time.Duration, runner *compliance.Runner) (*compliance.Suite, *compliance.Report, fuzz.Stats, error) {
	suite, st, err := GenerateSuite(cfg, maxExecs, maxDur)
	if err != nil {
		return nil, nil, st, err
	}
	if runner == nil {
		runner = compliance.DefaultRunner()
	}
	rep, err := runner.Run(suite)
	if err != nil {
		return suite, nil, st, err
	}
	return suite, rep, st, nil
}
