// Command nanobench is the repository's benchmark: permuted-probe floods
// through the serving tier (flood-local, flood-proxy) and the cold §4
// uniqueness study (study-cold). Run it from the repository root through
// the launcher, which builds it from source first:
//
//	bash nanobench/run.sh --workload flood-local --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it runs
// the traced variant and prints every per-layer metric, the ladder and the
// tracing overhead. The last line of standard output is the JSON result;
// the lines before it give the same numbers for people. It exits non-zero
// when any answer fails its correctness check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// result is the benchmark's output.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes, failures   []string
}

func newResult(attempted, failed int) *result {
	return &result{attempted: attempted, failed: failed, metrics: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tail notes the p99 of v with its sample count. It is printed for people
// and is not a result metric: on a shared host it follows the
// hypervisor's CPU steal more than the program (nanobench/README.md).
func (r *result) tail(v view) {
	r.note("latency_p99_ms=%.4f over %d samples (not gated)", v.p99, v.samples)
}

// overhead records the traced run's end-to-end view relative to the
// untraced one's.
func (r *result) overhead(untraced, traced view) {
	r.set("overhead.throughput_rps", traced.throughput/untraced.throughput)
	r.set("overhead.latency_p50_ms", traced.p50/untraced.p50)
	r.set("overhead.latency_p90_ms", traced.p90/untraced.p90)
	r.set("overhead.study_s", traced.studyS/untraced.studyS)
}

// fail counts n failed operations and says why.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// finish fills the metrics the workload does not measure with 0, keeps only
// the names the mode prints, and checks every value is a finite number.
func (r *result) finish(traced bool) (resultJSON, error) {
	var names []string
	if traced {
		for _, m := range perLayerMetrics {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range endToEndMetrics {
			names = append(names, m.Name)
		}
	}
	out := resultJSON{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(names)),
	}
	for _, name := range names {
		v := r.metrics[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", name, v)
		}
		out.Metrics[name] = metricJSON{Value: v, Unit: unitOf(name)}
	}
	return out, nil
}

func traceFile(wl string, seed uint64) string {
	return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.tsv", wl, seed))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "nanobench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "nanobench: workload=%s seed=%d seconds=%d trace=%d host: %s\n",
		*workload, *seed, *seconds, *trace, hostInfo())

	ctx := context.Background()
	var (
		res *result
		err error
	)
	switch *workload {
	case wlFloodLocal, wlFloodProxy:
		res, err = runFlood(ctx, *workload, *seed, *seconds, *trace == 1)
	case wlStudyCold:
		res, err = runStudy(ctx, *seed, *seconds, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nanobench:", err)
		os.Exit(1)
	}
	out, err := res.finish(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nanobench:", err)
		os.Exit(1)
	}

	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, f := range res.failures {
		fmt.Println("# FAILED:", f)
	}
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Printf("%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("%-34s %16.6g %s (%d of %d)\n", "failed_share", float64(out.Failed)/float64(max(out.Attempted, 1)), "ratio", out.Failed, out.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nanobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}
