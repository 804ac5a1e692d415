package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/collection"
)

// TestPruningOrdering checks the paper's qualitative claims about element
// accesses (§V–§VIII): sort-by-id reads everything; the improved
// algorithms read far less than their classic counterparts; and Hybrid
// reads no more than either iNRA or SF (Lemma 4) up to the one-round
// granularity of round-robin processing.
func TestPruningOrdering(t *testing.T) {
	// Skip interval sized to this corpus's short lists, as the default
	// interval is tuned for paper-scale lists.
	e := buildEngine(t, 3000, 5, 8, Config{SkipInterval: 8})
	rng := rand.New(rand.NewSource(6))
	var sumSortByID, sumNRA, sumINRA, sumSF, sumHybrid int
	queries := 0
	for trial := 0; trial < 15; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		tau := 0.8

		read := map[Algorithm]int{}
		for _, alg := range []Algorithm{SortByID, NRA, INRA, SF, Hybrid} {
			_, st, err := e.Select(q, tau, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			read[alg] = st.ElementsRead
			if alg == SortByID && st.ElementsRead != st.ListTotal {
				t.Errorf("sort-by-id read %d of %d", st.ElementsRead, st.ListTotal)
			}
		}
		queries++
		sumSortByID += read[SortByID]
		sumNRA += read[NRA]
		sumINRA += read[INRA]
		sumSF += read[SF]
		sumHybrid += read[Hybrid]

	}
	// Aggregate claims (robust against per-query noise). Lemma 4's
	// per-instance "Hybrid ≤ SF" holds under the paper's idealized
	// accounting; a faithful round-robin spends reads before absences
	// become resolvable, so we assert the orderings the paper's own
	// measurements (Figs. 6–7) support: improved ≪ classic, SF the
	// cheapest, Hybrid at or below iNRA.
	if sumINRA >= sumNRA {
		t.Errorf("iNRA total reads %d not below NRA %d", sumINRA, sumNRA)
	}
	if sumSF >= sumSortByID*2/3 {
		t.Errorf("SF total reads %d not well below sort-by-id %d", sumSF, sumSortByID)
	}
	if sumSF >= sumNRA*2/3 {
		t.Errorf("SF total reads %d not well below NRA %d", sumSF, sumNRA)
	}
	if sumHybrid > sumINRA {
		t.Errorf("Hybrid total reads %d above iNRA %d", sumHybrid, sumINRA)
	}
	if sumHybrid > sumSF*3/2 {
		t.Errorf("Hybrid total reads %d far above SF %d", sumHybrid, sumSF)
	}
	t.Logf("reads over %d queries: sort-by-id=%d nra=%d inra=%d sf=%d hybrid=%d",
		queries, sumSortByID, sumNRA, sumINRA, sumSF, sumHybrid)
}

// TestLengthBoundingEffect mirrors Fig. 8: disabling Theorem 1 must
// increase elements read for the improved algorithms.
func TestLengthBoundingEffect(t *testing.T) {
	e := buildEngine(t, 3000, 15, 8, Config{SkipInterval: 8})
	rng := rand.New(rand.NewSource(16))
	var with, without int
	for trial := 0; trial < 10; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		for _, alg := range []Algorithm{INRA, SF, Hybrid, ITA} {
			_, st1, err := e.Select(q, 0.8, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, st2, err := e.Select(q, 0.8, alg, &Options{NoLengthBound: true})
			if err != nil {
				t.Fatal(err)
			}
			with += st1.ElementsRead
			without += st2.ElementsRead
		}
	}
	if with >= without {
		t.Errorf("length bounding did not reduce reads: %d vs %d", with, without)
	}
	t.Logf("reads with LB=%d, without=%d (%.1fx)", with, without, float64(without)/float64(with))
}

// TestSkipIndexEffect mirrors Fig. 9: without the skip index the initial
// seek is performed by sequential reads, so ElementsRead grows while
// ElementsSkipped drops to zero.
func TestSkipIndexEffect(t *testing.T) {
	// A dense skip index relative to these short test lists, so the
	// initial seek actually jumps.
	e := buildEngine(t, 3000, 17, 8, Config{SkipInterval: 4})
	rng := rand.New(rand.NewSource(18))
	var withReads, withoutReads, skips int
	for trial := 0; trial < 10; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		for _, alg := range []Algorithm{INRA, SF, Hybrid} {
			_, st1, err := e.Select(q, 0.8, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, st2, err := e.Select(q, 0.8, alg, &Options{NoSkipIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			withReads += st1.ElementsRead
			withoutReads += st2.ElementsRead
			skips += st1.ElementsSkipped
			if st2.ElementsSkipped != 0 {
				t.Errorf("%v NSL skipped %d elements", alg, st2.ElementsSkipped)
			}
		}
	}
	if skips == 0 {
		t.Error("skip index never skipped anything")
	}
	if withReads >= withoutReads {
		t.Errorf("skip index did not reduce reads: %d vs %d", withReads, withoutReads)
	}
}

// TestTAProbes checks that the TA family performs random accesses and the
// NRA family does not, and that iTA probes no more than TA.
func TestTAProbes(t *testing.T) {
	e := buildEngine(t, 1500, 19, 7, Config{})
	q := e.PrepareCounts(e.c.Set(3))
	_, stTA, err := e.Select(q, 0.8, TA, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, stITA, err := e.Select(q, 0.8, ITA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stTA.RandomProbes == 0 {
		t.Error("TA performed no random probes")
	}
	if stITA.RandomProbes > stTA.RandomProbes {
		t.Errorf("iTA probed more than TA: %d > %d", stITA.RandomProbes, stTA.RandomProbes)
	}
	for _, alg := range []Algorithm{SortByID, NRA, INRA, SF, Hybrid} {
		_, st, err := e.Select(q, 0.8, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.RandomProbes != 0 {
			t.Errorf("%v performed %d random probes", alg, st.RandomProbes)
		}
	}
}

// TestHighThresholdPruning: at τ=0.9 the improved algorithms should prune
// the vast majority of list elements (the paper reports ≈95%).
func TestHighThresholdPruning(t *testing.T) {
	e := buildEngine(t, 5000, 21, 9, Config{SkipInterval: 8})
	rng := rand.New(rand.NewSource(22))
	for _, alg := range []Algorithm{INRA, SF, Hybrid} {
		var read, total int
		for trial := 0; trial < 10; trial++ {
			qid := collection.SetID(rng.Intn(e.c.NumSets()))
			q := e.PrepareCounts(e.c.Set(qid))
			_, st, err := e.Select(q, 0.9, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			read += st.ElementsRead
			total += st.ListTotal
		}
		pruned := 100 * (1 - float64(read)/float64(total))
		if pruned < 60 {
			t.Errorf("%v pruned only %.1f%% at τ=0.9", alg, pruned)
		}
		t.Logf("%v pruning at τ=0.9: %.1f%%", alg, pruned)
	}
}

func TestStatsPruningPower(t *testing.T) {
	s := Stats{ElementsRead: 25, ListTotal: 100}
	if got := s.PruningPower(); got != 75 {
		t.Errorf("PruningPower = %g, want 75", got)
	}
	if got := (Stats{}).PruningPower(); got != 0 {
		t.Errorf("empty PruningPower = %g", got)
	}
	if got := (Stats{ElementsRead: 5, ListTotal: 4}).PruningPower(); got != 0 {
		t.Errorf("overshoot PruningPower = %g, want clamped 0", got)
	}
}

func TestAlgorithmString(t *testing.T) {
	if SF.String() != "sf" || Hybrid.String() != "hybrid" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(42).String() == "" {
		t.Error("unknown algorithm name empty")
	}
	// Negative values used to index algorithmNames directly and panic.
	if got := Algorithm(-1).String(); got != "algorithm(-1)" {
		t.Errorf("Algorithm(-1).String() = %q", got)
	}
	if len(Algorithms()) != 8 {
		t.Errorf("Algorithms() = %d entries", len(Algorithms()))
	}
}

// TestSFWorkCounters pins Shortest-First's summed work counters, select
// over a τ grid and top-k over a k grid, on two pipeline corpora (the
// fixture one and a denser 3-letter one with many candidate kills). The
// figures were recorded before SF dropped its id hash for the positional
// candidate lookup. Answer fingerprints alone would not catch a killed
// candidate being silently re-admitted; CandidatesInserted would.
func TestSFWorkCounters(t *testing.T) {
	type work struct{ read, skipped, inserted, scans int }
	want := map[string]work{
		"a=6/select/tau=0.5": {53238, 0, 22046, 3657},
		"a=6/select/tau=0.6": {47149, 40, 16326, 3657},
		"a=6/select/tau=0.7": {41816, 384, 10900, 3657},
		"a=6/select/tau=0.8": {36260, 2128, 5998, 3657},
		"a=6/select/tau=0.9": {28634, 7352, 2381, 3657},
		"a=6/topk/k=1":       {49796, 0, 21916, 3657},
		"a=6/topk/k=3":       {61229, 0, 32082, 3657},
		"a=6/topk/k=10":      {64546, 0, 37083, 3657},
		"a=6/topk/k=25":      {65367, 0, 40910, 3657},
		"a=3/select/tau=0.5": {377861, 864, 113460, 3233},
		"a=3/select/tau=0.6": {354812, 9808, 91778, 3233},
		"a=3/select/tau=0.7": {302573, 30760, 67034, 3233},
		"a=3/select/tau=0.8": {217793, 63128, 41058, 3233},
		"a=3/select/tau=0.9": {114373, 113496, 17038, 3233},
		"a=3/topk/k=1":       {334065, 0, 108911, 3233},
		"a=3/topk/k=3":       {364599, 0, 116582, 3233},
		"a=3/topk/k=10":      {383753, 0, 127729, 3233},
		"a=3/topk/k=25":      {386645, 0, 134857, 3233},
	}
	check := func(key string, run func(q Query) (Stats, error), docs []string, e *Engine) {
		var got work
		for _, d := range docs {
			st, err := run(e.Prepare(d))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got.read += st.ElementsRead
			got.skipped += st.ElementsSkipped
			got.inserted += st.CandidatesInserted
			got.scans += st.CandidateScans
		}
		if got != want[key] {
			t.Errorf("%s: {read, skipped, inserted, scans} = %v, want %v", key, got, want[key])
		}
	}
	for _, alphabet := range []int{6, 3} {
		docs := pipelineDocs(500, 1234, alphabet)
		e := NewEngine(buildPipelineCollection(docs), Config{SkipInterval: 8})
		for _, tau := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
			check(fmt.Sprintf("a=%d/select/tau=%g", alphabet, tau), func(q Query) (Stats, error) {
				_, st, err := e.Select(q, tau, SF, nil)
				return st, err
			}, docs, e)
		}
		for _, k := range []int{1, 3, 10, 25} {
			check(fmt.Sprintf("a=%d/topk/k=%d", alphabet, k), func(q Query) (Stats, error) {
				_, st, err := e.SelectTopK(q, k, SF, nil)
				return st, err
			}, docs, e)
		}
	}
}
