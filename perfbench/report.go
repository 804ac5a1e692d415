package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The metric lists the benchmark's JSON line carries, in the order
// BENCHMARK.json names them: end-to-end metrics from an untraced run,
// per-layer metrics from a traced run. Every workload reports every
// metric of its list; a per-layer metric whose layer a workload never
// enters reads 0.
var (
	endToEndMetrics = []string{"setup_s", "heap_mb", "ops_per_s", "select_p50_us", "topk_p50_us"}
	perLayerMetrics = []string{
		"tokenize.prepare_p50_us",
		"core.select_self_p50_us", "core.select_self_p99_us",
		"core.topk_self_p50_us", "core.batch_self_p50_us",
		"invlist.postings_read_per_query", "invlist.postings_skipped_per_query", "invlist.pruning_power",
		"core.candidates_per_query", "core.candidate_scans_per_query", "core.candidate_yield",
		"core.results_per_query",
		"route.prune_ratio", "route.shards_visited_per_query",
		"core.merged_per_query", "core.bound_raises_per_topk",
		"live.insert_p50_us", "live.insert_p99_us", "live.delete_p50_us", "live.upsert_p50_us",
		"live.segments_mean", "live.memtable_docs_mean", "live.tombstones_mean",
		"live.compactions_per_kwrite", "live.last_compaction_ms",
		"wal.write_syscalls_per_write", "wal.bytes_written_per_user_byte",
		"segpack.checkpoints", "segpack.checkpoint_ms", "wal.tail_records_at_recovery",
		"runtime.alloc_bytes_per_op", "runtime.gc_cycles_per_kop",
		"trace.select_p50_delta_us", "trace.ops_per_s_delta_pct",
	}
)

// units maps every metric the benchmark can print to its unit. The
// other end-to-end metrics are printed but not in the JSON line: the
// workload-specific ones (batch, write, recovery, disk use, failures)
// because the line must carry the same non-zero metrics on every
// workload, the p99 latencies because hypervisor steal can double them
// for minutes at a time (see README.md).
var units = map[string]string{
	"setup_s":                  "s",
	"heap_mb":                  "MiB",
	"ops_per_s":                "1/s",
	"select_p50_us":            "us",
	"select_p99_us":            "us",
	"topk_p50_us":              "us",
	"topk_p99_us":              "us",
	"batch_p50_us":             "us",
	"batch_p99_us":             "us",
	"write_p50_us":             "us",
	"write_p99_us":             "us",
	"recovery_s":               "s",
	"disk_bytes_per_live_byte": "ratio",
	"failed_frac":              "ratio",

	"tokenize.prepare_p50_us":            "us",
	"core.select_self_p50_us":            "us",
	"core.select_self_p99_us":            "us",
	"core.topk_self_p50_us":              "us",
	"core.batch_self_p50_us":             "us",
	"invlist.postings_read_per_query":    "count",
	"invlist.postings_skipped_per_query": "count",
	"invlist.pruning_power":              "ratio",
	"core.candidates_per_query":          "count",
	"core.candidate_scans_per_query":     "count",
	"core.candidate_yield":               "ratio",
	"core.results_per_query":             "count",
	"route.prune_ratio":                  "ratio",
	"route.shards_visited_per_query":     "count",
	"core.merged_per_query":              "count",
	"core.bound_raises_per_topk":         "count",
	"live.insert_p50_us":                 "us",
	"live.insert_p99_us":                 "us",
	"live.delete_p50_us":                 "us",
	"live.upsert_p50_us":                 "us",
	"live.segments_mean":                 "count",
	"live.memtable_docs_mean":            "count",
	"live.tombstones_mean":               "count",
	"live.compactions_per_kwrite":        "count",
	"live.last_compaction_ms":            "ms",
	"wal.write_syscalls_per_write":       "ratio",
	"wal.bytes_written_per_user_byte":    "ratio",
	"segpack.checkpoints":                "count",
	"segpack.checkpoint_ms":              "ms",
	"wal.tail_records_at_recovery":       "count",
	"runtime.alloc_bytes_per_op":         "B",
	"runtime.gc_cycles_per_kop":          "count",
	"trace.select_p50_delta_us":          "us",
	"trace.ops_per_s_delta_pct":          "%",
}

// report is everything one workload run measured and checked.
type report struct {
	workload    string
	fingerprint uint64
	correct     bool
	attempted   int64
	failed      int64
	values      map[string]float64
	samples     map[string]int // sample count behind each percentile
	problems    []string       // answer-check mismatches
	notes       []string       // sizes and measurement details, printed
}

func newReport(workload string) *report {
	return &report{workload: workload, correct: true, values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric; the name must be in units.
func (r *report) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.values[name] = v
}

// setQuantiles records the p50 and p99 of xs under prefix_p50<suffix>
// and prefix_p99<suffix>, with their sample count.
func (r *report) setQuantiles(prefix, suffix string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	p50, p99 := prefix+"_p50"+suffix, prefix+"_p99"+suffix
	if _, ok := units[p50]; ok {
		r.set(p50, quantile(xs, 0.50))
		r.samples[p50] = len(xs)
	}
	if _, ok := units[p99]; ok {
		r.set(p99, quantile(xs, 0.99))
		r.samples[p99] = len(xs)
	}
}

// mismatch records a failed answer check.
func (r *report) mismatch(format string, args ...any) {
	r.correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// printHuman writes every measured metric, one per line, with its unit
// and (for percentiles) its sample count.
func (r *report) printHuman(w io.Writer) {
	fmt.Fprintf(w, "workload %s: inputs fingerprint %016x\n", r.workload, r.fingerprint)
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("  %-36s %14.4f %s", n, r.values[n], units[n])
		if s, ok := r.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, answers correct: %v\n", r.attempted, r.failed, r.correct)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  MISMATCH: %s\n", p)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultJSON is the machine-readable result line: the end-to-end metrics
// of an untraced run or the per-layer metrics of a traced one. prefix is
// prepended to every name (used when one invocation runs every workload).
func resultJSON(reps []*report, trace bool, prefixed bool) ([]byte, error) {
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	names := endToEndMetrics
	if trace {
		names = perLayerMetrics
	}
	for _, r := range reps {
		out.Correct = out.Correct && r.correct
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, n := range names {
			key := n
			if prefixed {
				key = r.workload + "." + n
			}
			out.Metrics[key] = jsonMetric{Value: r.values[n], Unit: units[n]}
		}
	}
	return json.Marshal(out)
}
