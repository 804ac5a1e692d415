package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/tokenize"
)

// TestMassiveLengthTies builds a corpus where huge numbers of sets share
// identical normalized lengths (permutations of the same token pool), so
// the (len, id) tie-breaking in Order Preservation, skip seeks and the
// SF/Hybrid stop rules is exercised hard.
func TestMassiveLengthTies(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	b := collection.NewBuilder(tokenize.WordTokenizer{}, false)
	vocab := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	seen := map[string]bool{}
	// Every 3-subset of an 8-word vocabulary: tokens appear in many sets,
	// and sets built from same-df tokens share lengths exactly.
	for i := 0; i < len(vocab); i++ {
		for j := i + 1; j < len(vocab); j++ {
			for k := j + 1; k < len(vocab); k++ {
				s := vocab[i] + " " + vocab[j] + " " + vocab[k]
				if !seen[s] {
					seen[s] = true
					b.Add(s)
				}
			}
		}
	}
	e := NewEngine(b.Build(), Config{})
	for trial := 0; trial < 30; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		for _, tau := range []float64{0.3, 0.5, 0.67, 1.0} {
			want, _, err := e.Select(q, tau, Naive, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range Algorithms() {
				got, _, err := e.Select(q, tau, alg, nil)
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				assertSameResults(t, e, q, tau, alg, got, want)
			}
		}
	}
}

// TestWideQueries exercises queries with more than 64 distinct tokens so
// the candidates' multi-word list masks are covered.
func TestWideQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 2}, true)
	for i := 0; i < 400; i++ {
		ln := 40 + rng.Intn(60) // long strings: 2-grams give 40-100 tokens
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			sb.WriteByte(byte('a' + rng.Intn(12)))
		}
		b.Add(sb.String())
	}
	e := NewEngine(b.Build(), Config{})
	for trial := 0; trial < 8; trial++ {
		qid := collection.SetID(rng.Intn(e.c.NumSets()))
		q := e.PrepareCounts(e.c.Set(qid))
		if len(q.Tokens) <= 64 {
			continue
		}
		for _, tau := range []float64{0.5, 0.8} {
			want, _, err := e.Select(q, tau, Naive, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range Algorithms() {
				got, _, err := e.Select(q, tau, alg, nil)
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				assertSameResults(t, e, q, tau, alg, got, want)
			}
		}
	}
}

// TestFileStoreBackedEngine runs the full algorithm lineup against the
// disk-resident list format and checks it against the in-memory oracle.
func TestFileStoreBackedEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 3}, false)
	for i := 0; i < 500; i++ {
		ln := 4 + rng.Intn(10)
		var sb strings.Builder
		for j := 0; j < ln; j++ {
			sb.WriteByte(byte('a' + rng.Intn(7)))
		}
		b.Add(sb.String())
	}
	c := b.Build()
	path := filepath.Join(t.TempDir(), "lists.bin")
	if err := invlist.WriteFile(path, c, 8); err != nil {
		t.Fatal(err)
	}
	fs, err := invlist.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	diskEngine := NewEngine(c, Config{Store: fs})
	memEngine := NewEngine(c, Config{SkipInterval: 8})
	for trial := 0; trial < 12; trial++ {
		qid := collection.SetID(rng.Intn(c.NumSets()))
		q := diskEngine.PrepareCounts(c.Set(qid))
		tau := 0.4 + 0.15*float64(trial%4)
		want, _, err := memEngine.Select(q, tau, Naive, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range Algorithms() {
			got, _, err := diskEngine.Select(q, tau, alg, nil)
			if err != nil {
				t.Fatalf("%v on FileStore: %v", alg, err)
			}
			assertSameResults(t, diskEngine, q, tau, alg, got, want)
		}
		// Top-k on the cursor path (FileStore exposes no raw posting
		// slice) must match the in-memory engine bit for bit.
		for _, alg := range []Algorithm{SF, INRA} {
			for _, k := range []int{1, 3, 10, 25} {
				want, _, err := memEngine.SelectTopK(q, k, alg, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := diskEngine.SelectTopK(q, k, alg, nil)
				if err != nil {
					t.Fatalf("top-k %v on FileStore: %v", alg, err)
				}
				sameResults(t, fmt.Sprintf("top-k %v k=%d on FileStore", alg, k), got, want)
			}
		}
	}
}

// TestSingleTokenQueries: a one-list query is a degenerate case for all
// the multi-list machinery (F equals that list's frontier, λ₁ is the
// only cutoff).
func TestSingleTokenQueries(t *testing.T) {
	e := buildEngine(t, 400, 74, 6, Config{})
	// Find a token and query exactly one gram of it.
	src := e.c.Set(0)[:1]
	q := e.PrepareCounts(src)
	if len(q.Tokens) != 1 {
		t.Fatal("expected a single-token query")
	}
	for _, tau := range []float64{0.2, 0.6, 1.0} {
		want, _, err := e.Select(q, tau, Naive, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range Algorithms() {
			got, _, err := e.Select(q, tau, alg, nil)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			assertSameResults(t, e, q, tau, alg, got, want)
		}
	}
}

// TestAllSetsIdentical: pathological corpus where every set is the same
// string — all lengths equal, every list contains every set.
func TestAllSetsIdentical(t *testing.T) {
	b := collection.NewBuilder(tokenize.QGramTokenizer{Q: 3}, false)
	for i := 0; i < 50; i++ {
		b.Add("identical")
	}
	e := NewEngine(b.Build(), Config{})
	q := e.PrepareCounts(e.c.Set(0))
	for _, alg := range Algorithms() {
		got, _, err := e.Select(q, 1.0, alg, nil)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(got) != 50 {
			t.Errorf("%v: %d results, want 50", alg, len(got))
		}
	}
}
