package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below
// are the benchmark's vocabulary; BENCHMARK.json at the repository root
// must list the same names with the same units (bench_test.go checks).
type metricSpec struct{ name, unit string }

// endToEnd are the user-visible metrics every untraced run prints, on
// every workload.
var endToEnd = []metricSpec{
	{"fuzz_execs_per_s", "execs/s"},
	{"compliance_cases_per_s", "runs/s"},
	{"setup_s", "s"},
	{"allocs_per_exec", "allocs"},
	{"alloc_bytes_per_exec", "B"},
	{"peak_rss_mb", "MiB"},
	{"ok_frac", "ratio"},
}

// perLayer are the metrics a traced run prints. A layer that does no
// work in a workload's timed region reads 0 there.
var perLayer = []metricSpec{
	{"fuzz.step_ns_p50", "ns"},
	{"fuzz.step_ns_p99", "ns"},
	{"fuzz.mutate_ns", "ns"},
	{"fuzz.collect_ratio", "ratio"},
	{"fuzz.worker_imbalance", "ratio"},
	{"fuzz.merge_s", "s"},
	{"filter.check_ns", "ns"},
	{"filter.accept_ratio", "ratio"},
	{"sim.run_hooked_ns", "ns"},
	{"sim.run_ns.riscvOVPsim", "ns"},
	{"sim.run_ns.Spike", "ns"},
	{"sim.run_ns.VP", "ns"},
	{"sim.run_ns.sail-riscv", "ns"},
	{"sim.run_ns.GRIFT", "ns"},
	{"sim.insts_per_run", "insts"},
	{"sim.traps_per_run", "traps"},
	{"sim.new_ms", "ms"},
	{"exec.predecode_ns", "ns"},
	{"exec.predecode_hit_ratio", "ratio"},
	{"exec.fused_insts_per_run", "insts"},
	{"coverage.oninst_calls_per_run", "calls"},
	{"coverage.onedge_calls_per_run", "calls"},
	{"coverage.oninst_ns", "ns"},
	{"coverage.merge_ns", "ns"},
	{"compliance.exec_ns", "ns"},
	{"compliance.compare_ns", "ns"},
	{"compliance.mismatch_ratio", "ratio"},
	{"compliance.ref_skip_ratio", "ratio"},
	{"campaign.queue_wait_ms", "ms"},
	{"campaign.job_s.fuzz", "s"},
	{"campaign.job_s.compliance", "s"},
	{"resilience.checkpoints", "count"},
	{"resilience.checkpoint_write_ms", "ms"},
	{"resilience.harness_faults", "count"},
	{"obs.events", "count"},
	{"obs.trace_overhead_frac", "ratio"},
	{"runtime.gc_cycles", "count/100k"},
	{"runtime.gc_pause_ms", "ms/100k"},
	{"runtime.mallocs_per_run", "allocs"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render selects the metrics of specs from measured. End-to-end metrics
// must all be measured; a per-layer metric a workload never set is a
// layer that did no work there and reads 0.
func render(specs []metricSpec, measured map[string]float64, requireAll bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := measured[s.name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return out, nil
}

// median returns the median of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of the durations, in nanoseconds.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return float64(s[rank])
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memCounter accumulates Go runtime allocation and GC deltas over the
// timed regions of a run. Reading MemStats stops the world, so begin
// and end are called outside the timed calls.
type memCounter struct {
	start                             runtime.MemStats
	mallocs, bytes, gcCycles, pauseNS uint64
}

func (m *memCounter) begin() { runtime.ReadMemStats(&m.start) }

func (m *memCounter) end() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.mallocs += now.Mallocs - m.start.Mallocs
	m.bytes += now.TotalAlloc - m.start.TotalAlloc
	m.gcCycles += uint64(now.NumGC - m.start.NumGC)
	m.pauseNS += now.PauseTotalNs - m.start.PauseTotalNs
}

// perExec fills the end-to-end allocation metrics for execs engine
// executions.
func (m *memCounter) perExec(e2e map[string]float64, execs float64) {
	e2e["allocs_per_exec"] = ratio(float64(m.mallocs), execs)
	e2e["alloc_bytes_per_exec"] = ratio(float64(m.bytes), execs)
}

// runtimeLayers fills the Go runtime per-layer metrics for runs
// engine executions. GC cycles and pauses are per 100,000 executions,
// so a faster program fitting more work into the budget does not read
// as collecting more.
func (m *memCounter) runtimeLayers(layers map[string]float64, runs float64) {
	layers["runtime.gc_cycles"] = ratio(float64(m.gcCycles)*1e5, runs)
	layers["runtime.gc_pause_ms"] = ratio(float64(m.pauseNS)/1e6*1e5, runs)
	layers["runtime.mallocs_per_run"] = ratio(float64(m.mallocs), runs)
}

// hostTimer times a call in host seconds: wall time minus the share of
// it the hypervisor gave this machine's vCPUs to other guests (the steal
// column of /proc/stat, averaged over the vCPUs). On a shared host,
// steal comes and goes with the neighbours' load; left in, it would read
// as the program slowing down.
type hostTimer struct {
	t0     time.Time
	steal0 float64
}

// startTimer reads /proc/stat before the clock (and stop after it), so
// the reads stay outside the timed interval.
func startTimer() hostTimer {
	s := stealSeconds()
	return hostTimer{t0: time.Now(), steal0: s}
}

// stop returns the wall time since start and the host time within it.
func (h hostTimer) stop() (wall, host time.Duration) {
	wall = time.Since(h.t0)
	stolen := time.Duration((stealSeconds() - h.steal0) * float64(time.Second))
	if stolen < 0 || stolen >= wall {
		stolen = 0
	}
	return wall, wall - stolen
}

// userHZ is the unit of /proc/stat times (USER_HZ, 100 on Linux).
const userHZ = 100

// stealSeconds is the steal time per vCPU since boot, or 0 where
// /proc/stat is unavailable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total float64
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] != "cpu" {
			cpus++
			continue
		}
		if len(f) > 8 {
			total, _ = strconv.ParseFloat(f[8], 64)
		}
	}
	if cpus == 0 {
		return 0
	}
	return total / userHZ / float64(cpus)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
