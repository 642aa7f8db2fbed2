package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rvnegtest/internal/campaign"
	"rvnegtest/internal/compliance"
	"rvnegtest/internal/obs"
)

// daemon is an in-process campaign service built exactly as rvnegtestd
// builds one: a job store, a one-slot scheduler with a telemetry
// registry (each job gets a child) and an event log (each job gets a
// labelled view). There is no HTTP layer.
type daemon struct {
	dir    string
	store  *campaign.Store
	reg    *obs.Registry
	events *obs.EventLog
	sched  *campaign.Scheduler
}

func openDaemon(dir string) (*daemon, error) {
	store, err := campaign.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	events, err := obs.CreateEventLog(filepath.Join(dir, "events.ndjson"))
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	sched, err := campaign.Open(store, campaign.SchedulerConfig{Slots: 1, Obs: reg, Events: events})
	if err != nil {
		events.Close()
		return nil, err
	}
	sched.Start()
	return &daemon{dir: dir, store: store, reg: reg, events: events, sched: sched}, nil
}

// close stops the scheduler and flushes the event log.
func (d *daemon) close() error {
	d.sched.Close()
	return d.events.Close()
}

// jobRun is one job, submitted and waited for.
type jobRun struct {
	job        *campaign.Job
	span       time.Duration // Submit until the job is terminal, host time
	wall       time.Duration
	before     obs.Snapshot // registry before Submit
	after      obs.Snapshot // registry once the job is terminal
	stagesDiff map[string]obs.StageSummary
}

func (d *daemon) runJob(spec campaign.JobSpec) (jobRun, error) {
	before := d.reg.TakeSnapshot()
	tm := startTimer()
	job, err := d.sched.Submit(spec)
	if err != nil {
		return jobRun{}, err
	}
	done, err := d.sched.Wait(context.Background(), job.ID)
	wall, span := tm.stop()
	if err != nil {
		return jobRun{}, err
	}
	after := d.reg.TakeSnapshot()
	diff := map[string]obs.StageSummary{}
	for name, s := range after.Stages {
		b := before.Stages[name]
		diff[name] = obs.StageSummary{Count: s.Count - b.Count, TotalNS: s.TotalNS - b.TotalNS}
	}
	return jobRun{job: done, span: span, wall: wall, before: before, after: after, stagesDiff: diff}, nil
}

// counter is the growth of one registry counter over the job.
func (j jobRun) counter(name string) float64 {
	return float64(j.after.Counters[name] - j.before.Counters[name])
}

// counterPrefix sums the growth of every counter whose name starts with
// prefix (labelled families).
func (j jobRun) counterPrefix(prefix string) float64 {
	var n float64
	for name, v := range j.after.Counters {
		if strings.HasPrefix(name, prefix) {
			n += float64(v - j.before.Counters[name])
		}
	}
	return n
}

// trapPair is one fuzz job followed by a compliance job over its suite.
type trapPair struct {
	fuzz, comp jobRun
	execs      uint64 // fuzzer steps, all workers
	faults     uint64 // fuzz harness faults
	runs       float64
	suite      []byte // the fuzz job's suite artifact
	report     []byte // the compliance job's report artifact
	reportJSON []byte
}

// fuzzStats is the subset of the stats.json artifact the benchmark reads.
type fuzzStats struct {
	Workers []struct {
		Execs         uint64 `json:"execs"`
		HarnessFaults uint64 `json:"harness_faults"`
	} `json:"workers"`
}

func (d *daemon) runPair(seed int64, execs uint64) (trapPair, error) {
	var p trapPair
	var err error
	p.fuzz, err = d.runJob(campaign.JobSpec{
		Kind:            campaign.KindFuzz,
		Suite:           "trap",
		Seed:            seed,
		Execs:           execs,
		Workers:         2,
		CaseTimeoutSec:  1,
		CheckpointEvery: execs / 4,
	})
	if err != nil {
		return p, err
	}
	if !finished(p.fuzz.job) {
		return p, fmt.Errorf("fuzz job %s ended %s: %s", p.fuzz.job.ID, p.fuzz.job.State, p.fuzz.job.Error)
	}
	arts := d.store.ArtifactsDir(p.fuzz.job.ID)
	suitePath := filepath.Join(arts, campaign.ArtifactSuite)
	if p.suite, err = os.ReadFile(suitePath); err != nil {
		return p, err
	}
	raw, err := os.ReadFile(filepath.Join(arts, campaign.ArtifactFuzzStats))
	if err != nil {
		return p, err
	}
	var st fuzzStats
	if err := json.Unmarshal(raw, &st); err != nil {
		return p, fmt.Errorf("parsing %s: %w", campaign.ArtifactFuzzStats, err)
	}
	for _, w := range st.Workers {
		p.execs += w.Execs
		p.faults += w.HarnessFaults
	}

	p.comp, err = d.runJob(campaign.JobSpec{
		Kind:           campaign.KindCompliance,
		Suite:          suitePath,
		Workers:        2,
		CaseTimeoutSec: 1,
	})
	if err != nil {
		return p, err
	}
	if !finished(p.comp.job) {
		return p, fmt.Errorf("compliance job %s ended %s: %s", p.comp.job.ID, p.comp.job.State, p.comp.job.Error)
	}
	p.runs = p.comp.counter("rvnegtest_compliance_execs_total")
	arts = d.store.ArtifactsDir(p.comp.job.ID)
	if p.report, err = os.ReadFile(filepath.Join(arts, campaign.ArtifactReport)); err != nil {
		return p, err
	}
	if p.reportJSON, err = os.ReadFile(filepath.Join(arts, campaign.ArtifactReportJSON)); err != nil {
		return p, err
	}
	return p, nil
}

// finished reports whether a job completed with artifacts: done, or
// degraded by harness faults (which the caller counts as failures).
func finished(j *campaign.Job) bool {
	return j.State == campaign.StateDone || j.State == campaign.StateDegraded
}

// runDaemonTrap is the service workload: trap-family fuzz and
// compliance jobs, two engine workers each, with the per-case watchdog,
// periodic checkpoints and telemetry on, driven one job at a time
// through the campaign scheduler and job store.
func runDaemonTrap(rc runConfig) (*outcome, error) {
	o := newOutcome()
	var d *daemon
	var setups []time.Duration
	for i := 0; i < minSetups; i++ {
		dir := filepath.Join(rc.tmp, fmt.Sprintf("store-%d", i))
		tm := startTimer()
		nd, err := openDaemon(dir)
		_, setup := tm.stop()
		setups = append(setups, setup)
		if err != nil {
			return nil, err
		}
		if d != nil {
			if err := d.close(); err != nil {
				nd.close()
				return nil, err
			}
		}
		d = nd
	}
	o.e2e["setup_s"] = median(seconds(setups))

	var mem memCounter
	var pairs []trapPair
	runPairs := func(budget time.Duration, into *[]trapPair) error {
		return repeat(budget, func() error {
			mem.begin()
			p, err := d.runPair(rc.seed, rc.size.trapExecs)
			mem.end()
			if err != nil {
				return err
			}
			*into = append(*into, p)
			return nil
		})
	}
	if err := runPairs(rc.untracedBudget(), &pairs); err != nil {
		d.close()
		return nil, err
	}
	var fuzzRates, compRates, wallFuzz, wallComp, spans []float64
	var execs float64
	for _, p := range pairs {
		fuzzRates = append(fuzzRates, float64(p.execs)/p.fuzz.span.Seconds())
		compRates = append(compRates, p.runs/p.comp.span.Seconds())
		wallFuzz = append(wallFuzz, float64(p.execs)/p.fuzz.wall.Seconds())
		wallComp = append(wallComp, p.runs/p.comp.wall.Seconds())
		spans = append(spans, (p.fuzz.span + p.comp.span).Seconds())
		execs += float64(p.execs) + p.runs
	}
	note("fuzz execs/s per job %.0f (wall %.0f); compliance runs/s per job %.0f (wall %.0f); set-up s %.4g",
		fuzzRates, wallFuzz, compRates, wallComp, seconds(setups))
	o.e2e["fuzz_execs_per_s"] = median(fuzzRates)
	o.e2e["compliance_cases_per_s"] = median(compRates)
	mem.perExec(o.e2e, execs)
	mem.runtimeLayers(o.layers, execs)

	var traced []trapPair
	if rc.trace {
		if err := runPairs(rc.budget/2, &traced); err != nil {
			d.close()
			return nil, err
		}
	}
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("event log: %w", err)
	}

	all := append(append([]trapPair(nil), pairs...), traced...)
	for _, p := range all {
		compFaults := int64(p.comp.counterPrefix("rvnegtest_compliance_harness_faults_total"))
		o.attempted += int64(p.execs) + int64(p.runs) + 2
		o.failed += int64(p.faults) + compFaults
		o.check(p.faults == 0, "fuzz job %s had %d harness faults", p.fuzz.job.ID, p.faults)
		o.check(compFaults == 0, "compliance job %s had %d harness faults", p.comp.job.ID, compFaults)
		o.check(string(p.suite) == string(pairs[0].suite), "fuzz jobs from one seed wrote different suites")
		o.check(string(p.report) == string(pairs[0].report), "compliance jobs over one suite wrote different reports")
		for _, j := range []jobRun{p.fuzz, p.comp} {
			if j.job.State != campaign.StateDone {
				o.failed++
				o.check(false, "job %s ended %s", j.job.ID, j.job.State)
			}
			qs, err := d.store.QuarantineFiles(j.job.ID)
			if err != nil {
				return nil, err
			}
			o.failed += int64(len(qs))
		}
	}

	// The job's report must equal a plain workers-1, watchdog-free run
	// over the same suite.
	suite, err := compliance.ParseSuite(string(pairs[0].suite))
	if err != nil {
		return nil, err
	}
	plain, err := compliance.DefaultRunner().Run(suite)
	if err != nil {
		return nil, err
	}
	o.check(plain.Render() == string(pairs[0].report), "daemon compliance report differs from a plain Runner.Run")
	plainJSON, err := plain.JSON()
	if err != nil {
		return nil, err
	}
	o.check(string(append(plainJSON, '\n')) == string(pairs[0].reportJSON), "daemon report.json differs from a plain Runner.Run")

	if rc.trace {
		var tspans []float64
		for _, p := range traced {
			tspans = append(tspans, (p.fuzz.span + p.comp.span).Seconds())
		}
		o.layers["obs.trace_overhead_frac"] = median(tspans)/median(spans) - 1
		if err := daemonLayers(o.layers, d.dir, traced, plain); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// daemonLayers fills the per-layer metrics the service exposes to an
// outside observer: job spans and queue waits, the engines' stage
// timers and counters (per job, as registry deltas), and the event log.
func daemonLayers(layers map[string]float64, dir string, pairs []trapPair, rep *compliance.Report) error {
	f, err := os.Open(filepath.Join(dir, "events.ndjson"))
	if err != nil {
		return err
	}
	evs, err := obs.ReadEvents(f)
	f.Close()
	if err != nil {
		return err
	}
	byJob := map[string][]obs.Event{}
	for _, ev := range evs {
		byJob[ev.Job] = append(byJob[ev.Job], ev)
	}

	var fuzzSpans, compSpans, waits, imbalance, merge []float64
	var events, checkpoints, hfaults float64
	var fuzzExecs, fuzzDropped, fuzzAdds, fuzzTraps, compRuns, compTraps float64
	var hits, misses, fused float64
	fuzzStages := map[string]obs.StageSummary{}
	compStages := map[string]obs.StageSummary{}
	for _, p := range pairs {
		fuzzSpans = append(fuzzSpans, p.fuzz.span.Seconds())
		compSpans = append(compSpans, p.comp.span.Seconds())
		for _, j := range []jobRun{p.fuzz, p.comp} {
			waits = append(waits, float64(j.job.StartedNS-j.job.SubmittedNS)/1e6)
			for _, ev := range byJob[j.job.ID] {
				events++
				if ev.Type == "checkpoint" {
					checkpoints++
				}
			}
		}
		slowest, fastest := workerSpans(byJob[p.fuzz.job.ID])
		imbalance = append(imbalance, ratio(slowest.Seconds(), fastest.Seconds()))
		merge = append(merge, (p.fuzz.span - slowest).Seconds())

		fuzzExecs += p.fuzz.counter("rvnegtest_fuzz_execs_total")
		fuzzDropped += p.fuzz.counterPrefix("rvnegtest_fuzz_dropped_total")
		fuzzAdds += p.fuzz.counter("rvnegtest_fuzz_corpus_adds_total")
		fuzzTraps += p.fuzz.counter("rvnegtest_fuzz_traps_total")
		compRuns += p.runs
		compTraps += p.comp.counter("rvnegtest_compliance_traps_total")
		hfaults += p.fuzz.counter("rvnegtest_fuzz_harness_faults_total") +
			p.comp.counterPrefix("rvnegtest_compliance_harness_faults_total")
		for prefix, j := range map[string]jobRun{"rvnegtest_fuzz_": p.fuzz, "rvnegtest_compliance_": p.comp} {
			hits += j.counter(prefix + "predecode_hits_total")
			misses += j.counter(prefix + "predecode_misses_total")
			fused += j.counter(prefix + "predecode_fused_total")
		}
		addStages(fuzzStages, p.fuzz.stagesDiff)
		addStages(compStages, p.comp.stagesDiff)
	}
	n := float64(len(pairs))
	simRuns := fuzzExecs - fuzzDropped + compRuns

	layers["fuzz.worker_imbalance"] = median(imbalance)
	layers["fuzz.merge_s"] = median(merge)
	layers["fuzz.mutate_ns"] = stageMeanNS(fuzzStages, obs.StageMutate)
	layers["fuzz.collect_ratio"] = ratio(fuzzAdds, fuzzExecs)
	layers["filter.check_ns"] = stageMeanNS(fuzzStages, obs.StageFilter)
	layers["filter.accept_ratio"] = ratio(fuzzExecs-fuzzDropped, fuzzExecs)
	layers["coverage.merge_ns"] = stageMeanNS(fuzzStages, obs.StageCoverageEval)
	layers["sim.traps_per_run"] = ratio(fuzzTraps+compTraps, simRuns)
	layers["exec.predecode_hit_ratio"] = ratio(hits, hits+misses)
	layers["exec.fused_insts_per_run"] = ratio(fused, simRuns)
	all := map[string]obs.StageSummary{}
	addStages(all, fuzzStages)
	addStages(all, compStages)
	layers["exec.predecode_ns"] = stageMeanNS(all, obs.StagePredecode)
	complianceLayers(layers, compStages, rep)
	layers["campaign.queue_wait_ms"] = median(waits)
	layers["campaign.job_s.fuzz"] = median(fuzzSpans)
	layers["campaign.job_s.compliance"] = median(compSpans)
	layers["resilience.checkpoints"] = checkpoints / n
	layers["resilience.checkpoint_write_ms"] = stageMeanNS(fuzzStages, obs.StageCheckpointWrite) / 1e6
	layers["resilience.harness_faults"] = hfaults
	layers["obs.events"] = events / n
	return nil
}

// workerSpans returns the slowest and fastest fuzz worker's time, from
// campaign start to the worker's stage summary (emitted as it finishes).
func workerSpans(evs []obs.Event) (slowest, fastest time.Duration) {
	var start int64 = -1
	for _, ev := range evs {
		switch {
		case ev.Type == "campaign_start" && start < 0:
			start = ev.TNS
		case ev.Type == "stage_summary" && start >= 0:
			d := time.Duration(ev.TNS - start)
			if d > slowest {
				slowest = d
			}
			if fastest == 0 || d < fastest {
				fastest = d
			}
		}
	}
	return slowest, fastest
}

func addStages(dst, src map[string]obs.StageSummary) {
	for name, s := range src {
		d := dst[name]
		d.Count += s.Count
		d.TotalNS += s.TotalNS
		dst[name] = d
	}
}
