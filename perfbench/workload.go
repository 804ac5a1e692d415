package main

import (
	"fmt"
	"math"
	"time"

	"repro/setsim"
)

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds int
	trace   bool
	// scale multiplies every corpus and pool size (1 for the benchmark;
	// the package tests run shrunken copies of each workload).
	scale float64
	// workDir holds the durable store and is removed afterwards.
	workDir string
	// epoch is the time origin of every span of the run.
	epoch time.Time
	// spanDir receives the span file of a traced run ("" skips it).
	spanDir string
}

func (cfg config) scaled(n int) int {
	m := int(math.Round(float64(n) * cfg.scale))
	if m < 1 {
		m = 1
	}
	return m
}

// phaseTracer records the set-up and end-of-run calls of a traced run;
// nil (no-op) when untraced.
func (cfg config) phaseTracer() *tracer {
	if !cfg.trace {
		return nil
	}
	return newTracer(cfg.epoch)
}

// setupRepeats is how many times each workload builds its engine; the
// median is setup_s.
const setupRepeats = 5

// Operation counts of the untimed passes before the timed loop.
const (
	counterOps = 1000 // the deterministic counter pass
	checkOps   = 48   // queries checked against a reference engine
	topK       = 10
)

// selectTaus is the threshold cycle of the SF selections on the
// word-query workloads.
var selectTaus = []float64{0.6, 0.7, 0.8, 0.9}

// queryCounters accumulates the work counters the selection Stats
// report, over a fixed sequence of queries, so the per-query means
// repeat bit for bit for a seed.
type queryCounters struct {
	n                               int
	read, skipped, listTotal, cands int
	scans, results                  int
}

func (qc *queryCounters) add(res []setsim.Result, st setsim.Stats) {
	qc.n++
	qc.read += st.ElementsRead
	qc.skipped += st.ElementsSkipped
	qc.listTotal += st.ListTotal
	qc.cands += st.CandidatesInserted
	qc.scans += st.CandidateScans
	qc.results += len(res)
}

func (qc *queryCounters) report(r *report) {
	if qc.n == 0 {
		return
	}
	n := float64(qc.n)
	r.set("invlist.postings_read_per_query", float64(qc.read)/n)
	r.set("invlist.postings_skipped_per_query", float64(qc.skipped)/n)
	if qc.listTotal > 0 {
		r.set("invlist.pruning_power", 1-float64(qc.read)/float64(qc.listTotal))
	}
	r.set("core.candidates_per_query", float64(qc.cands)/n)
	r.set("core.candidate_scans_per_query", float64(qc.scans)/n)
	if qc.cands > 0 {
		r.set("core.candidate_yield", float64(qc.results)/float64(qc.cands))
	}
	r.set("core.results_per_query", float64(qc.results)/n)
}

// loopMetrics records the end-to-end metrics of a timed loop, failure
// accounting, runtime counters and — for a traced run — the span self
// times and the tracing overhead. Untraced, the end-to-end metrics pool
// the rounds with the least steal time (see roundLen).
func loopMetrics(r *report, res *loopResult, trace bool) {
	u := modeUntraced
	all := res.pooled(modeUntraced)
	all.merge(res.pooled(modeTraced))
	r.attempted, r.failed = all.attempted, all.failed
	if r.attempted > 0 {
		r.set("failed_frac", float64(r.failed)/float64(r.attempted))
	}
	untraced := res.pooled(u)
	if ops := float64(untraced.completed()); ops > 0 {
		r.set("runtime.alloc_bytes_per_op", float64(res.allocBytes)/ops)
		r.set("runtime.gc_cycles_per_kop", 1000*float64(res.gcCycles)/ops)
	}
	latencies := []struct {
		prefix string
		kind   opKind
	}{{"select", kSelect}, {"topk", kTopK}, {"batch", kBatch}, {"write", kWrite}}
	if !trace {
		var kept bucket
		var keptTime time.Duration
		var steal float64
		rounds := res.kept()
		for _, i := range rounds {
			kept.merge(&res.buckets[i][u])
			keptTime += res.roundTime[i]
			steal += res.roundSteal[i]
		}
		r.set("ops_per_s", float64(kept.completed())/keptTime.Seconds())
		for _, l := range latencies {
			r.setQuantiles(l.prefix, "_us", kept.lat[l.kind])
		}
		r.notes = append(r.notes, fmt.Sprintf("kept rounds: %d of %d; steal %.3f in kept rounds, %.3f overall",
			len(rounds), res.nRounds, steal/float64(len(rounds)), meanSteal(res)))
		return
	}

	t := modeTraced
	traced := res.pooled(t)
	r.set("ops_per_s", float64(untraced.completed())/res.modeTime[u].Seconds())
	for _, l := range latencies {
		r.setQuantiles(l.prefix, "_us", untraced.lat[l.kind])
	}
	tracedOps := float64(traced.completed()) / res.modeTime[t].Seconds()
	r.set("trace.ops_per_s_delta_pct", 100*(r.values["ops_per_s"]-tracedOps)/r.values["ops_per_s"])
	r.set("trace.select_p50_delta_us", quantile(traced.lat[kSelect], 0.5)-quantile(untraced.lat[kSelect], 0.5))

	self := map[string][]float64{} // µs
	for _, tr := range res.tracers {
		if tr == nil {
			continue
		}
		for name, xs := range selfTimes(tr.spans) {
			for _, x := range xs {
				self[name] = append(self[name], x/1e3)
			}
		}
	}
	r.setQuantiles("tokenize.prepare", "_us", self[spanPrepare])
	r.setQuantiles("core.select_self", "_us", self[spanSelect])
	r.setQuantiles("core.topk_self", "_us", self[spanTopK])
	r.setQuantiles("core.batch_self", "_us", self[spanBatch])
	r.setQuantiles("live.insert", "_us", self[spanInsert])
	r.setQuantiles("live.delete", "_us", self[spanDelete])
	r.setQuantiles("live.upsert", "_us", self[spanUpsert])
}

// meanSteal is the share of CPU time stolen over every round.
func meanSteal(res *loopResult) float64 {
	var s float64
	for i := 0; i < res.nRounds; i++ {
		s += res.roundSteal[i]
	}
	return s / float64(res.nRounds)
}

// check compares one answer with its reference answer (see
// sameResults) and records any difference or error as a mismatch.
func (r *report) check(what, text string, tol float64, got, want []setsim.Result, err, werr error) {
	if err != nil || werr != nil {
		r.mismatch("%s %q: error %v, reference error %v", what, text, err, werr)
		return
	}
	if e := sameResults(got, want, tol); e != nil {
		r.mismatch("%s %q: %v", what, text, e)
	}
}

// sameResults reports whether got equals want exactly: same ids in the
// same order and scores within tol (tol 0 demands identical bits).
func sameResults(got, want []setsim.Result, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			return fmt.Errorf("result %d: id %d, want %d", i, got[i].ID, want[i].ID)
		}
		exact := tol <= 0
		if (exact && math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score)) || math.Abs(got[i].Score-want[i].Score) > tol {
			return fmt.Errorf("result %d (id %d): score %.17g, want %.17g", i, got[i].ID, got[i].Score, want[i].Score)
		}
	}
	return nil
}
