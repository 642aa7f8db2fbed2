// The sharded compliance engine: the only Phase B engine. Workers 0 and 1
// run it as a single shard covering the whole suite.
//
// Phase B is embarrassingly parallel: every test-case execution owns a
// pre-loaded simulator image, so case i on clone A never observes case j
// on clone B. The engine shards suite.Cases into one contiguous
// index range per worker and gives every worker a private clone of the
// reference and of each supported SUT for the configuration (the paper's
// "pre-loaded template" setup, cloned per worker instead of re-assembled).
//
// Determinism argument (the report is bit-identical for every worker
// count): each worker computes its shard's reference outcomes and then
// its shard's per-SUT partial Cells; a shard's comparison reads only the
// reference outcomes the same worker just produced, so there is no
// cross-shard data flow at all. The partial cells are merged in shard
// order — and shards are contiguous ascending case ranges, so counter
// sums and example-index concatenation reproduce exactly a single
// shard's case-order traversal. Reference runs overlap SUT runs across
// workers (worker 0 can be comparing while worker 1 still generates
// references), which is safe for the same reason.
package compliance

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// WorkerStats is one worker's share of a Run.
type WorkerStats struct {
	// Execs counts the simulator executions (reference + SUT runs) the
	// worker performed. Skipped cases do not execute.
	Execs int
}

// RunStats summarizes the execution engine's work for one Runner.Run.
type RunStats struct {
	Workers     int
	Execs       int // total simulator executions across all workers
	Duration    time.Duration
	CasesPerSec float64 // case executions per wall-clock second
	PerWorker   []WorkerStats
}

// Clone returns a deep copy of the stats: PerWorker is the only
// reference field, and handing out the live slice would let a holder
// observe (or race with) the accounting of a subsequent Run.
func (s RunStats) Clone() RunStats {
	s.PerWorker = append([]WorkerStats(nil), s.PerWorker...)
	return s
}

// StatsSnapshot returns a copy of the most recent Run's stats that later
// runs cannot mutate (the aliasing-audit companion of Fuzzer.Stats).
func (r *Runner) StatsSnapshot() RunStats {
	return r.Stats.Clone()
}

// String renders a one-line throughput summary plus the per-worker
// execution counts.
func (s RunStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d workers, %d executions in %v (%.0f cases/s)",
		s.Workers, s.Execs, s.Duration.Round(time.Millisecond), s.CasesPerSec)
	if len(s.PerWorker) > 1 {
		b.WriteString("; per-worker execs:")
		for _, w := range s.PerWorker {
			fmt.Fprintf(&b, " %d", w.Execs)
		}
	}
	return b.String()
}

// ProgressEvent reports one completed shard of work: the reference pass
// (Sim == "") or one SUT pass over the worker's case range [Lo, Hi).
type ProgressEvent struct {
	Config isa.Config
	Sim    string
	Worker int
	Lo, Hi int
	// Execs is the number of cases actually executed in the shard
	// (excludes skipped cases).
	Execs int
}

// workerCount resolves the Workers knob: <=1 one shard, N shards,
// negative = one shard per available CPU.
func (r *Runner) workerCount() int {
	if r.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if r.Workers == 0 {
		return 1
	}
	return r.Workers
}

// addExecs accumulates execution counts into the per-worker stats.
func (r *Runner) addExecs(worker, n int) {
	r.Stats.PerWorker[worker].Execs += n
	r.Stats.Execs += n
	r.tel.addExecs(n)
}

// shard is a contiguous [Lo, Hi) range of case indexes.
type shard struct{ lo, hi int }

// shardRanges splits n cases into `workers` near-equal contiguous ranges
// (the first n%workers shards are one case longer). Empty shards are
// produced when workers > n, keeping worker indexes stable.
func shardRanges(n, workers int) []shard {
	out := make([]shard, workers)
	base, rem := n/workers, n%workers
	lo := 0
	for w := range out {
		size := base
		if w < rem {
			size++
		}
		out[w] = shard{lo, lo + size}
		lo += size
	}
	return out
}

// runConfig is the sharded engine for one configuration row. Every
// worker owns private harnessed instances of the reference and each
// supported SUT — breakers and watchdog rebuilds included — so the
// resilience machinery needs no locking.
func (r *Runner) runConfig(ctx context.Context, suite *Suite, cfg isa.Config, workers int) ([]Cell, int, error) {
	maxEx := r.maxExamples()
	shards := shardRanges(len(suite.Cases), workers)

	// The Progress hook is documented as never being called
	// concurrently; serialize emissions from the worker goroutines.
	var progressMu sync.Mutex
	emit := func(ev ProgressEvent) {
		if r.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		r.Progress(ev)
	}

	trapBase := suite.trapBase(cfg)
	p := template.PlatformFor(suite.Family, cfg)
	refIns, err := r.newInstances(r.Ref, p, workers)
	if err != nil {
		return nil, 0, fmt.Errorf("compliance: reference %s on %v: %w", r.Ref.Name, cfg, err)
	}
	// suts[j] is nil for unsupported simulators, else one instance per
	// worker.
	suts := make([][]*instance, len(r.cols))
	defer func() {
		for _, ins := range suts {
			closeInstances(ins)
		}
	}()
	for j := range r.cols {
		col := &r.cols[j]
		if !col.supports(cfg, suite.Family) {
			continue
		}
		ins, err := r.newColInstances(col, p, workers)
		if err != nil {
			return nil, 0, fmt.Errorf("compliance: %s on %v: %w", col.name, cfg, err)
		}
		suts[j] = ins
	}

	refOuts := make([]sim.Outcome, len(suite.Cases))
	partials := make([][]Cell, workers) // partials[w][j]
	execs := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := shards[w]
			// Reference pass for this shard. Other workers may
			// already be in their SUT passes — safe, because a
			// shard's comparisons read only its own refOuts range.
			if err := runRefRange(ctx, refIns[w], suite.Cases, refOuts, sh.lo, sh.hi); err != nil {
				errs[w] = err
				return
			}
			execs[w] += sh.hi - sh.lo
			emit(ProgressEvent{Config: cfg, Worker: w, Lo: sh.lo, Hi: sh.hi, Execs: sh.hi - sh.lo})
			r.tel.event(obs.Event{Type: "shard_done", Config: cfg.String(), Sim: r.Ref.Name,
				Worker: w, Lo: sh.lo, Hi: sh.hi, Execs: uint64(sh.hi - sh.lo)})

			cells := make([]Cell, len(r.cols))
			for j := range r.cols {
				if suts[j] == nil {
					continue
				}
				cells[j].Supported = true
				var t0 time.Time
				if r.tel != nil {
					t0 = time.Now()
				}
				n, err := runCaseRange(ctx, &cells[j], refOuts, suts[j][w], suite.Cases,
					sh.lo, sh.hi, maxEx, trapBase, r.DontCare, r.tel.compareHist())
				if err != nil {
					errs[w] = err
					return
				}
				execs[w] += n
				emit(ProgressEvent{Config: cfg, Sim: r.cols[j].name, Worker: w, Lo: sh.lo, Hi: sh.hi, Execs: n})
				if r.tel != nil {
					r.tel.event(obs.Event{Type: "cell_done", Config: cfg.String(), Sim: r.cols[j].name,
						Worker: w, Lo: sh.lo, Hi: sh.hi, Execs: uint64(n), DurNS: time.Since(t0).Nanoseconds()})
				}
			}
			partials[w] = cells
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}

	// Deterministic merge: shard order equals ascending case order.
	row := make([]Cell, len(r.cols))
	for j := range r.cols {
		if suts[j] == nil {
			continue
		}
		row[j].Supported = true
		for w := 0; w < workers; w++ {
			row[j].merge(&partials[w][j], maxEx)
		}
	}
	for w, n := range execs {
		r.addExecs(w, n)
	}
	return row, countSkipped(refOuts), nil
}
