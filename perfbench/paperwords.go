package main

import (
	"math/rand"
	"time"

	"repro/setsim"
)

// paper-words: the paper's own workload (§VIII). IMDB-like rows reduced
// to distinct words, indexed as 3-gram sets with ListsOnly; one client
// runs SF queries — 90% Select with τ cycling 0.6/0.7/0.8/0.9, 10%
// SelectTopK — each a corpus word with 0–2 edits from all four size
// buckets.
const (
	paperRows = 1_000_000
	paperPool = 8192
)

// paperQuery is the pool index of operation i: a fixed permutation
// (the stride is odd, the pool a power of two at full size) that spreads
// any run of consecutive operations evenly over the pool, so every part
// of the timed loop draws queries of every size and difficulty.
func paperQuery(i, n int) int { return (i * 5039) % n }

// paperOp is operation i of the paper-words stream: every tenth is a
// top-k query, the rest selections whose threshold steps through the
// cycle every ten operations, so each query meets every threshold as the
// loop revisits it.
func paperOp(i int) (kind opKind, tau float64) {
	if i%10 == 9 {
		return kTopK, 0
	}
	return kSelect, selectTaus[(i/10)%len(selectTaus)]
}

func runPaperWords(cfg config) (*report, error) {
	r := newReport("paper-words")
	rng := rand.New(rand.NewSource(cfg.seed))
	words := wordCorpus(rng, cfg.scaled(paperRows))
	pool := editedQueries(rng, words, gramSet(words), cfg.scaled(paperPool))
	r.fingerprint = fingerprint(words, pool)

	tk := setsim.QGramTokenizer{Q: 3}
	ph := cfg.phaseTracer()
	var eng *setsim.Engine
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		eng = nil
		heapInuseMiB() // collect the previous engine outside the timing
		setups = append(setups, ph.timed(spanBuild, func() { eng = setsim.Build(words, tk, setsim.ListsOnly()) }))
	}
	r.set("setup_s", median(setups))
	r.set("heap_mb", heapInuseMiB())

	// Answer check: a fixed prefix of the stream against the Naive scan.
	for i := 0; i < checkOps; i++ {
		text := pool[paperQuery(i, len(pool))]
		q := eng.Prepare(text)
		kind, tau := paperOp(i)
		var got, want []setsim.Result
		var err, werr error
		if kind == kTopK {
			got, _, err = eng.SelectTopK(q, topK, setsim.SF, nil)
			want, _, werr = eng.SelectTopK(q, topK, setsim.Naive, nil)
		} else {
			got, _, err = eng.Select(q, tau, setsim.SF, nil)
			want, _, werr = eng.Select(q, tau, setsim.Naive, nil)
		}
		r.check("SF vs Naive", text, 1e-9, got, want, err, werr)
	}

	// Counter pass: the stream's first counterOps operations, in order.
	var qc queryCounters
	for i := 0; i < counterOps; i++ {
		q := eng.Prepare(pool[paperQuery(i, len(pool))])
		if kind, tau := paperOp(i); kind == kSelect {
			res, st, err := eng.Select(q, tau, setsim.SF, nil)
			if err == nil {
				qc.add(res, st)
			}
		} else {
			eng.SelectTopK(q, topK, setsim.SF, nil) //nolint:errcheck // warm-up only
		}
	}
	qc.report(r)

	clients := []*client{newClient(0, cfg)}
	res := runLoop(clients, time.Duration(cfg.seconds)*time.Second, cfg.trace, func(c *client, i int) error {
		text := pool[paperQuery(i, len(pool))]
		kind, tau := paperOp(i)
		start := time.Now()
		root := c.tr.begin(spanOp, spanNoParent)
		s := c.tr.begin(spanPrepare, root)
		q := eng.Prepare(text)
		c.tr.end(s)
		var err error
		if kind == kTopK {
			s = c.tr.begin(spanTopK, root)
			_, _, err = eng.SelectTopK(q, topK, setsim.SF, nil)
		} else {
			s = c.tr.begin(spanSelect, root)
			_, _, err = eng.Select(q, tau, setsim.SF, nil)
		}
		c.tr.end(s)
		c.tr.end(root)
		if err != nil {
			return err
		}
		c.record(kind, start)
		return nil
	})
	loopMetrics(r, res, cfg.trace)
	return r, writeTrace(cfg, r, ph, res)
}
