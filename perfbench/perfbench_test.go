package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: spanNoParent},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "a", start: 20, end: 50, parent: 0}, // overlaps the first child
		{name: "b", start: 60, end: 70, parent: 0},
		{name: "b", start: 90, end: 120, parent: 0}, // clipped to the parent
		{name: "c", start: 62, end: 66, parent: 3},  // grandchild: only b's
	}
	got := selfTimes(spans)
	want := map[string][]float64{
		"root": {100 - (40 + 10 + 10)},
		"a":    {20, 30},
		"b":    {10 - 4, 30},
		"c":    {4},
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %v, want %v", name, g, w)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s[%d] self = %v, want %v", name, i, g[i], w[i])
			}
		}
	}
}

func TestTracerRecordsOpTree(t *testing.T) {
	tr := newTracer(time.Now())
	root := tr.begin(spanOp, spanNoParent)
	child := tr.begin(spanSelect, root)
	tr.end(child)
	tr.end(root)
	next := tr.begin(spanOp, spanNoParent)
	tr.end(next)
	if len(tr.spans) != 3 || tr.spans[child].parent != root || tr.spans[child].op != root || tr.spans[next].op != next {
		t.Fatalf("unexpected span tree %+v", tr.spans)
	}
	var untraced *tracer // the untraced mode records nothing
	untraced.end(untraced.begin(spanOp, spanNoParent))
}

func TestModeDuration(t *testing.T) {
	total := 4*traceWindow + 100*time.Millisecond
	if u, tr := modeDuration(total, modeUntraced), modeDuration(total, modeTraced); u != 2*traceWindow+100*time.Millisecond || tr != 2*traceWindow {
		t.Fatalf("untraced %v, traced %v", u, tr)
	}
	total = 3*traceWindow + 10*time.Millisecond
	if u, tr := modeDuration(total, modeUntraced), modeDuration(total, modeTraced); u != 2*traceWindow || tr != traceWindow+10*time.Millisecond {
		t.Fatalf("untraced %v, traced %v", u, tr)
	}
}

func TestKeptRoundsLeastSteal(t *testing.T) {
	const n = 20 // keeps 6
	res := &loopResult{nRounds: n, roundSteal: make([]float64, n)}
	for i := range res.roundSteal {
		res.roundSteal[i] = 0.5
	}
	for _, i := range []int{17, 2, 9, 11, 4, 13} {
		res.roundSteal[i] = 0.01 * float64(i)
	}
	res.roundSteal[19] = 0.3
	if got := fmt.Sprint(res.kept()); got != "[2 4 9 11 13 17]" {
		t.Fatalf("kept %s", got)
	}
	// All rounds equally stolen: the kept ones spread over the loop.
	quiet := &loopResult{nRounds: n, roundSteal: make([]float64, n)}
	got := quiet.kept()
	if len(got) != 6 || got[0] > 3 || got[5] < 16 {
		t.Fatalf("quiet machine kept %v", got)
	}
}

func TestAnswerableFiltersUnseenGrams(t *testing.T) {
	known := gramSet([]string{"stone", "to"})
	for q, want := range map[string]bool{"stones": true, "TO": true, "xqz": false, "": false, "qqstoq": true} {
		if got := answerable(q, known); got != want {
			t.Errorf("answerable(%q) = %v, want %v", q, got, want)
		}
	}
}

// smallConfig is a shrunken copy of a workload: the same code paths on
// a corpus and query pool a fiftieth of the benchmark's size.
func smallConfig(t *testing.T, seed int64, trace bool) config {
	return config{seed: seed, seconds: 1, trace: trace, scale: 0.02, workDir: t.TempDir(), epoch: time.Now()}
}

// exactCounters are the per-layer counters that must repeat bit for bit
// for one seed.
var exactCounters = []string{
	"invlist.postings_read_per_query", "invlist.postings_skipped_per_query", "invlist.pruning_power",
	"core.candidates_per_query", "core.candidate_scans_per_query", "core.candidate_yield",
	"core.results_per_query", "route.prune_ratio", "route.shards_visited_per_query",
}

func TestCountersRepeatForOneSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads twice")
	}
	for _, w := range []struct {
		name string
		run  func(config) (*report, error)
	}{{"paper-words", runPaperWords}, {"routed-fleet", runRoutedFleet}} {
		a, err := w.run(smallConfig(t, 5, true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.run(smallConfig(t, 5, false))
		if err != nil {
			t.Fatal(err)
		}
		other, err := w.run(smallConfig(t, 6, false))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*report{a, b, other} {
			if !r.correct || r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%s: correct=%v attempted=%d failed=%d %v", w.name, r.correct, r.attempted, r.failed, r.problems)
			}
		}
		if a.fingerprint != b.fingerprint || a.fingerprint == other.fingerprint {
			t.Errorf("%s: fingerprints %x, %x (same seed), %x (other seed)", w.name, a.fingerprint, b.fingerprint, other.fingerprint)
		}
		for _, name := range exactCounters {
			va, oka := a.values[name]
			vb, okb := b.values[name]
			if oka != okb || va != vb {
				t.Errorf("%s: %s = %v then %v for one seed", w.name, name, va, vb)
			}
		}
		if w.name == "routed-fleet" && a.values["route.prune_ratio"] <= 0 {
			t.Errorf("routed-fleet: the router skipped no shard")
		}
	}
}

func TestDurableChurnRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the durable workload")
	}
	r, err := runDurableChurn(smallConfig(t, 3, true))
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct || r.failed != 0 {
		t.Fatalf("correct=%v failed=%d %v", r.correct, r.failed, r.problems)
	}
	for _, name := range []string{"write_p50_us", "recovery_s", "live.insert_p50_us", "segpack.checkpoint_ms"} {
		if r.values[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.values[name])
		}
	}
}

// TestMetricListsMatchBenchmarkJSON pins the JSON line to the metric
// lists, names and units BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, names []string) {
		if len(declared) != len(names) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(names))
		}
		for i, d := range declared {
			if d.Name != names[i] || d.Unit != units[names[i]] {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", kind, i, d.Name, d.Unit, names[i], units[names[i]])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
}

func TestResultLineIsLastAndComplete(t *testing.T) {
	r := newReport("w")
	r.set("setup_s", 1.5)
	line, err := resultJSON([]*report{r}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	var out jsonResult
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != len(endToEndMetrics) || out.Metrics["setup_s"].Value != 1.5 || out.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("unexpected result %s", line)
	}
	var buf bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &buf, &buf); code == 0 || strings.Contains(buf.String(), "{") {
		t.Fatalf("unknown workload: exit %d, output %q", code, buf.String())
	}
}
