package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/dataset"
)

// Input generation. Every input is a pure function of the seed; the
// program under test only ever receives the generated strings.

// wordCorpus is the paper's §VIII corpus shape: IMDB-like rows reduced
// to their distinct words, each word later indexed as a 3-gram set.
func wordCorpus(rng *rand.Rand, rows int) []string {
	return dataset.Words(dataset.IMDBLike(rng, rows))
}

// forGrams calls f with each unpadded 3-gram of s, the way a 3-gram
// tokenizer without padding decomposes it: lowercase rune windows, and a
// string shorter than three runes as its own single gram.
func forGrams(s string, f func(g string)) {
	rs := []rune(strings.ToLower(s))
	if len(rs) < 3 {
		if len(rs) > 0 {
			f(string(rs))
		}
		return
	}
	for i := 0; i+3 <= len(rs); i++ {
		f(string(rs[i : i+3]))
	}
}

// gramSet is the set of 3-grams occurring in words.
func gramSet(words []string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, w := range words {
		forGrams(w, func(g string) { set[g] = struct{}{} })
	}
	return set
}

// answerable reports whether q has at least one gram in known — the
// condition for a selection query not to fail as empty.
func answerable(q string, known map[string]struct{}) bool {
	ok := false
	forGrams(q, func(g string) {
		if _, hit := known[g]; hit {
			ok = true
		}
	})
	return ok
}

// editedQueries draws n query words round-robin from the paper's four
// size buckets (Fig. 6b), each a corpus word with 0–2 random edits
// (dataset.Modify). Queries whose grams are all unseen in known are
// redrawn, so every generated query is answerable.
func editedQueries(rng *rand.Rand, words []string, known map[string]struct{}, n int) []string {
	var pools [][]string
	for _, b := range dataset.SizeBuckets {
		var pool []string
		for _, w := range words {
			if g := dataset.GramCount(w); g >= b.Min && g <= b.Max {
				pool = append(pool, w)
			}
		}
		if len(pool) > 0 {
			pools = append(pools, pool)
		}
	}
	out := make([]string, 0, n)
	for len(out) < n {
		pool := pools[len(out)%len(pools)]
		q := dataset.Modify(rng, pool[rng.Intn(len(pool))], rng.Intn(3))
		if answerable(q, known) {
			out = append(out, q)
		}
	}
	return out
}

// topicCorpus synthesizes the routed-fleet corpus: topics with disjoint
// vocabularies, each document drawing docWords words from one topic, so
// a similarity-aware partition separates topics into shards and a query
// — which can only match its own topic — lets the router skip most
// shards. It returns the documents and each topic's vocabulary.
func topicCorpus(rng *rand.Rand, topics, vocab, docWords, n int) ([]string, [][]string) {
	seen := make(map[string]bool)
	words := make([][]string, topics)
	for t := range words {
		for len(words[t]) < vocab {
			w := randomWord(rng, 4+rng.Intn(5))
			if !seen[w] {
				seen[w] = true
				words[t] = append(words[t], w)
			}
		}
	}
	docs := make([]string, n)
	for i := range docs {
		docs[i] = topicDoc(rng, words[rng.Intn(topics)], docWords)
	}
	return docs, words
}

// topicDoc draws k words of one topic's vocabulary.
func topicDoc(rng *rand.Rand, vocab []string, k int) string {
	b := make([]byte, 0, k*9)
	for j := 0; j < k; j++ {
		if j > 0 {
			b = append(b, ' ')
		}
		b = append(b, vocab[rng.Intn(len(vocab))]...)
	}
	return string(b)
}

func randomWord(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// fingerprint is an FNV-1a hash over every generated input, printed and
// recorded so two runs can show they measured the same inputs.
func fingerprint(parts ...[]string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\n", len(p))
		for _, s := range p {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}
