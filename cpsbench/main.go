// Command cpsbench is the outside-in benchmark of the atypical engine. It
// drives the public atypical facade on one of four cyber-physical workloads,
// checks every answer it samples against a reference, and prints one JSON
// object as its last line of output.
//
// Usage (from the repository root):
//
//	bash cpsbench/run.sh --workload sliding_windows --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run measures the workload's end-to-end metrics with no
// tracing. With --trace 1 it makes a separate single-client pass over the
// workload's inputs that composes the public calls of each module (cluster,
// forest, cube, query, shard, stream, subscribe) in the order the facade
// uses them, records one span per call, and reports per-layer metrics, the
// share of untraced time the layers account for, and the tracing overhead.
//
// --corrupt 1 alters one sampled answer before it is checked: the run must
// then report a failure and exit non-zero (the oracle's negative self-check).
//
// NOTES.md in this directory records the workload rationale, the
// layer-to-metric predictions, and the first-run findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// workload is one benchmark workload: an untraced measurement and a traced
// per-layer pass over the same inputs.
type workload struct {
	run    func(r *report) error
	traced func(r *report) error
}

var workloads = map[string]workload{
	"sliding_windows":  {runSlidingWindows, traceSlidingWindows},
	"dashboard_ingest": {runDashboardIngest, traceDashboardIngest},
	"live_feed":        {runLiveFeed, traceLiveFeed},
	"sharded_scatter":  {runShardedScatter, traceShardedScatter},
}

// maxProcs caps GOMAXPROCS so the load shape (at most two load goroutines
// on at most two processors) is the same on every host.
const maxProcs = 2

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("cpsbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: sliding_windows, dashboard_ingest, live_feed or sharded_scatter")
	seed := fs.Int64("seed", 1, "workload seed: drives the deployment, datasets, query streams and feed schedule")
	seconds := fs.Int("seconds", 20, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	corrupt := fs.Int("corrupt", 0, "1 alters one sampled answer before checking it (negative self-check)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "cpsbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	r := newReport(*name, *seed, *seconds, *corrupt == 1)
	var err error
	if *trace == 1 {
		err = w.traced(r)
	} else if err = w.run(r); err == nil {
		r.set("ok_share", "share", 1-float64(r.failed)/float64(max(r.attempted, 1)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpsbench:", err)
		return 1
	}
	r.print(os.Stdout, *trace == 1)
	if !r.correct() {
		fmt.Fprintf(os.Stderr, "cpsbench: %d of %d operations failed or mismatched the reference\n", r.failed, r.attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's operation counts, metrics and notes.
type report struct {
	workload string
	seed     int64
	seconds  int
	corrupt  bool

	attempted, failed int
	// blind is set when the oracle failed to flag a deliberately altered
	// answer: the run's checks cannot be trusted.
	blind   bool
	metrics map[string]metric
	notes   []string
}

func newReport(workload string, seed int64, seconds int, corrupt bool) *report {
	return &report{workload: workload, seed: seed, seconds: seconds, corrupt: corrupt, metrics: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts attempted operations and, separately, the failed ones.
func (r *report) op(n, failed int) {
	r.attempted += n
	r.failed += failed
}

func (r *report) correct() bool { return r.failed == 0 && !r.blind && r.attempted > 0 }

// print writes the notes and one "name value unit" line per metric, then the
// result object as the last line.
func (r *report) print(f *os.File, traced bool) {
	mode := "end-to-end"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(f, "# cpsbench %s seed=%d seconds=%d (%s)\n", r.workload, r.seed, r.seconds, mode)
	for _, n := range r.notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(f, "# %-34s %14.6f %s\n", n, m.Value, m.Unit)
	}
	if r.attempted > 0 {
		fmt.Fprintf(f, "# failed_share %.6f (%d of %d operations)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	out, err := json.Marshal(result{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpsbench: encoding result:", err)
		return
	}
	fmt.Fprintln(f, string(out))
}
