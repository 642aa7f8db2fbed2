// Command benchmark is rvnegtest's end-to-end benchmark: one command
// that runs a named workload for a fixed time, checks the outputs, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) by name and unit. benchmark/run.sh builds and runs it from
// the repository root:
//
//	bash benchmark/run.sh --workload fuzz-v3 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the run's provenance, which is also appended, with the result, to
// .bench_build/results.ndjson. A failed correctness check prints
// correct=false and exits 1; a run that cannot complete prints no
// result and exits 2. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// buildDir is the benchmark's scratch directory, relative to the
// repository root it runs from (run.sh keeps its Go build cache there).
const buildDir = ".bench_build"

// sizes fixes the work of one repetition of each workload. Campaigns are
// bounded by executions, never by wall time: input length grows with
// the campaign, so a time bound would change the workload with speed.
type sizes struct {
	// fuzzExecs bounds the fuzz-v3 campaign and the table1 suite
	// generation.
	fuzzExecs uint64
	// trapExecs bounds each worker of the daemon-trap fuzz job.
	trapExecs uint64
}

var fullSizes = sizes{fuzzExecs: 200_000, trapExecs: 50_000}

// runConfig is one workload invocation.
type runConfig struct {
	seed   int64
	budget time.Duration // measurement time (halved per side when tracing)
	trace  bool
	size   sizes
	tmp    string // scratch directory for stores and checkpoints
}

// untracedBudget is the time for the untraced repetitions: all of it,
// or half when the other half goes to the traced ones.
func (rc runConfig) untracedBudget() time.Duration {
	if rc.trace {
		return rc.budget / 2
	}
	return rc.budget
}

// outcome is what a workload measured and checked.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	problems  []string // failed correctness checks
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// check records a failed correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"fuzz-v3":     runFuzzV3,
	"table1":      runTable1,
	"daemon-trap": runDaemonTrap,
}

// repeat calls rep until budget is spent: at least once, and never
// starting a repetition that, judged by the previous one, would overrun.
func repeat(budget time.Duration, rep func() error) error {
	start := time.Now()
	for {
		t0 := time.Now()
		if err := rep(); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t0) > budget {
			return nil
		}
	}
}

// note prints a diagnostic line to standard error.
func note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance records what produced a result.
type provenance struct {
	Command      string `json:"command"`
	ExitCode     int    `json:"exit_code"`
	GoVersion    string `json:"go_version"`
	CPU          string `json:"cpu"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	RunIndex     int    `json:"run_index"`
	Started      string `json:"started_utc"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fuzz-v3, table1 or daemon-trap")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Int("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: benchmark --workload fuzz-v3|table1|daemon-trap --seed N --seconds S --trace 0|1\n")
		return 2
	}
	started := time.Now().UTC()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}

	o, err := wl(runConfig{seed: *seed, budget: time.Duration(*secs) * time.Second,
		trace: *trace == 1, size: fullSizes, tmp: tmp})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 2
	}
	rss, err := peakRSSMiB()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	o.e2e["peak_rss_mb"] = rss
	o.e2e["ok_frac"] = 1 - ratio(float64(o.failed), float64(o.attempted))
	o.check(o.attempted > 0, "no operations attempted")

	var metrics map[string]metricValue
	if *trace == 1 {
		metrics, err = render(perLayer, o.layers, false)
	} else {
		metrics, err = render(endToEnd, o.e2e, true)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 2
	}
	code := 0
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "benchmark: %s: check failed: %s\n", *name, p)
		code = 1
	}
	res := result{Correct: code == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	prov := describe(*name, *seed, *secs, *trace, code, started)

	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %18.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	provLine, err := json.Marshal(prov)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if err := appendLedger(provLine, resLine); err != nil {
		fmt.Fprintf(stderr, "benchmark: results ledger: %v\n", err)
	}
	fmt.Fprintf(stdout, "%s\n%s\n", provLine, resLine)
	return code
}

// ledgerPath accumulates every result with its provenance.
var ledgerPath = filepath.Join(buildDir, "results.ndjson")

func appendLedger(prov, res []byte) error {
	f, err := os.OpenFile(ledgerPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "{\"provenance\":%s,\"result\":%s}\n", prov, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// describe gathers the provenance of this run. run.sh passes the command
// line it was invoked with and, inside a git checkout, the commit.
func describe(name string, seed int64, secs, trace, code int, started time.Time) provenance {
	cmd := os.Getenv("RVBENCH_COMMAND")
	if cmd == "" {
		cmd = strings.Join(os.Args, " ")
	}
	commit := os.Getenv("RVBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		Command:      cmd,
		ExitCode:     code,
		GoVersion:    runtime.Version(),
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Commit:       commit,
		SourceSHA256: os.Getenv("RVBENCH_SOURCE_SHA256"),
		Workload:     name,
		Seed:         seed,
		Seconds:      secs,
		Trace:        trace,
		RunIndex:     countLines(ledgerPath),
		Started:      started.Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// countLines is the number of earlier results in the ledger (0 when it
// does not exist yet).
func countLines(path string) int {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return strings.Count(string(b), "\n")
}
