package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/route"
	"repro/internal/tokenize"
)

// TestErrorPathStatsContract pins the planner's unified error path:
// every selection entry point of every engine shape answers a failed
// validation with nil results, zero-valued Stats and the planner's
// error — and an empty query outranks a bad threshold, k ≤ 0 is a
// silent empty answer. Before the pipeline each shape hand-rolled
// these rules with drifting Stats conventions.
func TestErrorPathStatsContract(t *testing.T) {
	docs := pipelineDocs(40, 99, 5)
	eng := NewEngine(buildPipelineCollection(docs), Config{})
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, docs, true, 2, Config{})
	defer se.Close()
	le := buildPipelineLive(t, docs, 2, false)
	defer le.Close()

	check := func(name string, wantErr error, res []Result, st Stats, err error) {
		t.Helper()
		if err != wantErr {
			t.Errorf("%s: err = %v, want %v", name, err, wantErr)
		}
		if res != nil {
			t.Errorf("%s: results = %v, want nil", name, res)
		}
		if st != (Stats{}) {
			t.Errorf("%s: stats = %+v, want zero value", name, st)
		}
	}

	q, sq, lq := eng.Prepare(docs[0]), se.Prepare(docs[0]), le.Prepare(docs[0])
	empty, sempty, lempty := eng.Prepare(""), se.Prepare(""), le.Prepare("")

	for _, tau := range []float64{0, -1, 1.5} {
		name := fmt.Sprintf("tau=%g", tau)
		res, st, err := eng.Select(q, tau, SF, nil)
		check("Engine.Select/"+name, ErrBadThreshold, res, st, err)
		res, st, err = se.Select(sq, tau, SF, nil)
		check("ShardedEngine.Select/"+name, ErrBadThreshold, res, st, err)
		res, st, err = le.Select(lq, tau, SF, nil)
		check("LiveEngine.Select/"+name, ErrBadThreshold, res, st, err)
		res, st, err = eng.SelectSortByIDParallel(q, tau, 4)
		check("SelectSortByIDParallel/"+name, ErrBadThreshold, res, st, err)
		res, st, err = eng.SelectNaiveParallel(q, tau, 4)
		check("SelectNaiveParallel/"+name, ErrBadThreshold, res, st, err)
		if _, err := eng.SelfJoin(tau, SF, nil, 2); err != ErrBadThreshold {
			t.Errorf("SelfJoin/%s: err = %v, want ErrBadThreshold", name, err)
		}
	}

	// Emptiness is checked before the threshold: an empty query with a
	// bad τ still reports ErrEmptyQuery.
	res, st, err := eng.Select(empty, -1, SF, nil)
	check("Engine.Select/empty", ErrEmptyQuery, res, st, err)
	res, st, err = se.Select(sempty, -1, SF, nil)
	check("ShardedEngine.Select/empty", ErrEmptyQuery, res, st, err)
	res, st, err = le.Select(lempty, -1, SF, nil)
	check("LiveEngine.Select/empty", ErrEmptyQuery, res, st, err)
	res, st, err = eng.SelectSortByIDParallel(empty, -1, 4)
	check("SelectSortByIDParallel/empty", ErrEmptyQuery, res, st, err)
	res, st, err = eng.SelectNaiveParallel(empty, -1, 4)
	check("SelectNaiveParallel/empty", ErrEmptyQuery, res, st, err)
	res, st, err = le.Select(LiveQuery{}, 0.5, SF, nil)
	check("LiveEngine.Select/zero-LiveQuery", ErrEmptyQuery, res, st, err)

	// Top-k: empty query errs, k ≤ 0 answers empty with a nil error.
	res, st, err = eng.SelectTopK(empty, 5, SF, nil)
	check("Engine.SelectTopK/empty", ErrEmptyQuery, res, st, err)
	res, st, err = se.SelectTopK(sempty, 5, SF, nil)
	check("ShardedEngine.SelectTopK/empty", ErrEmptyQuery, res, st, err)
	res, st, err = le.SelectTopK(lempty, 5, SF, nil)
	check("LiveEngine.SelectTopK/empty", ErrEmptyQuery, res, st, err)
	for _, k := range []int{0, -3} {
		name := fmt.Sprintf("k=%d", k)
		res, st, err = eng.SelectTopK(q, k, SF, nil)
		check("Engine.SelectTopK/"+name, nil, res, st, err)
		res, st, err = se.SelectTopK(sq, k, SF, nil)
		check("ShardedEngine.SelectTopK/"+name, nil, res, st, err)
		res, st, err = le.SelectTopK(lq, k, SF, nil)
		check("LiveEngine.SelectTopK/"+name, nil, res, st, err)
	}

	// Batches propagate the same contract per entry, still indexed by
	// submission position.
	for i, br := range eng.SelectBatch([]Query{q, empty}, -1, SF, nil, 2) {
		want := ErrBadThreshold
		if i == 1 {
			want = ErrEmptyQuery
		}
		check(fmt.Sprintf("Engine.SelectBatch[%d]", i), want, br.Results, br.Stats, br.Err)
	}
	for i, br := range se.SelectBatch([]Query{sq, sempty}, -1, SF, nil, 2) {
		want := ErrBadThreshold
		if i == 1 {
			want = ErrEmptyQuery
		}
		check(fmt.Sprintf("ShardedEngine.SelectBatch[%d]", i), want, br.Results, br.Stats, br.Err)
	}
	for i, br := range le.SelectBatch([]LiveQuery{lq, lempty}, -1, SF, nil, 2) {
		want := ErrBadThreshold
		if i == 1 {
			want = ErrEmptyQuery
		}
		check(fmt.Sprintf("LiveEngine.SelectBatch[%d]", i), want, br.Results, br.Stats, br.Err)
	}

	// An unknown algorithm is an execute-stage error, not a planner one:
	// the error surfaces but Stats legitimately carry the accounted work.
	if _, _, err := eng.Select(q, 0.5, Algorithm(99), nil); err != ErrUnknownAlg {
		t.Errorf("Engine.Select/unknown alg: err = %v, want ErrUnknownAlg", err)
	}
	if _, _, err := eng.SelectTopK(q, 5, SortByID, nil); err != ErrUnknownAlg {
		t.Errorf("Engine.SelectTopK/non-topk alg: err = %v, want ErrUnknownAlg", err)
	}
}

// TestSecondMomentBound pins the Cauchy–Schwarz refinement: on a shard
// of short documents the refined summary bound is strictly below the
// first-moment bound (never above it anywhere), Summarize reports the
// per-document distinct-token ceiling, and the refinement never changes
// answers — it only prunes sets that provably cannot qualify.
func TestSecondMomentBound(t *testing.T) {
	// 40 two-word documents over 80 words: MaxToks is 2 while a long
	// query intersects the shard in far more tokens, so the refined
	// overlap estimate √(2·Σidf⁴) undercuts Σidf².
	var docs []string
	for i := 0; i < 40; i++ {
		docs = append(docs, fmt.Sprintf("w%d w%d", 2*i, 2*i+1))
	}
	eng := wordEngineFromDocs(docs, Config{})
	sum := route.Summarize(eng.Collection())
	if got := sum.MaxToks(); got != 2 {
		t.Fatalf("MaxToks = %d, want 2", got)
	}
	q := eng.Prepare("w0 w1 w2 w3 w4 w5 w6 w7 w8 w9")
	plain := shardBound(sum, q, false)
	refined := shardBound(sum, q, true)
	if refined > plain {
		t.Fatalf("refined bound %g exceeds first-moment bound %g", refined, plain)
	}
	if refined >= plain {
		t.Fatalf("refinement did not bite on a short-document shard: refined %g, plain %g", refined, plain)
	}
	// The refined bound must still dominate every true score.
	res, _, err := eng.Select(q, minPositiveTau, Naive, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Score > refined*(1+1e-9)+1e-12 {
			t.Fatalf("true score %g exceeds refined bound %g", r.Score, refined)
		}
	}

	// Fleet-level ablation: identical answers with the refinement on and
	// off, for both merge disciplines.
	corpus := pipelineDocs(400, 21, 6)
	se := BuildSharded(tokenize.QGramTokenizer{Q: 3}, corpus, true, 4, Config{})
	defer se.Close()
	off := &Options{NoSecondMoment: true}
	for _, qs := range []string{corpus[5], corpus[77], corpus[200]} {
		sq := se.Prepare(qs)
		a, _, err1 := se.Select(sq, 0.5, SF, nil)
		b, _, err2 := se.Select(sq, 0.5, SF, off)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("select answers differ with second moment on/off for %q", qs)
		}
		a, _, err1 = se.SelectTopK(sq, 3, SF, nil)
		b, _, err2 = se.SelectTopK(sq, 3, SF, off)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("top-k answers differ with second moment on/off for %q", qs)
		}
	}
}
