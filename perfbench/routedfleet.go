package main

import (
	"math/rand"
	"strings"
	"time"

	"repro/setsim"
)

// routed-fleet: a topic-clustered word corpus small enough that the
// index fits in L2, on an 8-shard routed BuildSharded engine. Per-shard
// execute work is small, so plan, route, fan-out, merge, copy-out and
// batch scheduling dominate. One client issues SF Select at τ=0.5,
// SelectTopK, and SelectBatch bursts.
const (
	fleetDocs     = 20000
	fleetTopics   = 32
	fleetVocab    = 40
	fleetDocWords = 6
	fleetPool     = 8192
	fleetShards   = 8
	fleetTau      = 0.5
	fleetBatch    = 32
	fleetWorkers  = 2
)

// fleetOp is operation i of the routed-fleet stream, in cycles of
// eight: five selections, two top-k queries and one batch.
func fleetOp(i int) opKind {
	switch i % 8 {
	case 1, 5:
		return kTopK
	case 3:
		return kBatch
	}
	return kSelect
}

func runRoutedFleet(cfg config) (*report, error) {
	r := newReport("routed-fleet")
	rng := rand.New(rand.NewSource(cfg.seed))
	docs, vocab := topicCorpus(rng, fleetTopics, fleetVocab, fleetDocWords, cfg.scaled(fleetDocs))
	// Queries are fresh documents of a random topic; one with no word in
	// the corpus would fail as empty, so it is redrawn.
	seen := make(map[string]bool)
	for _, d := range docs {
		for _, w := range strings.Fields(d) {
			seen[w] = true
		}
	}
	pool := make([]string, 0, cfg.scaled(fleetPool))
	for len(pool) < cap(pool) {
		q := topicDoc(rng, vocab[rng.Intn(len(vocab))], fleetDocWords)
		for _, w := range strings.Fields(q) {
			if seen[w] {
				pool = append(pool, q)
				break
			}
		}
	}
	r.fingerprint = fingerprint(docs, pool)
	// batchAt is the text of member j of the batch at operation i.
	batchAt := func(i, j int) string { return pool[(i*fleetBatch+j)%len(pool)] }

	tk := setsim.WordTokenizer{}
	ph := cfg.phaseTracer()
	var se *setsim.ShardedEngine
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if se != nil {
			ph.timed(spanClose, se.Close)
			se = nil
		}
		heapInuseMiB()
		setups = append(setups, ph.timed(spanBuild, func() { se = setsim.BuildSharded(docs, tk, fleetShards, setsim.ListsOnly()) }))
	}
	defer se.Close()
	r.set("setup_s", median(setups))
	r.set("heap_mb", heapInuseMiB())

	// Answer check: the stream's first operations against a monolithic
	// engine over the same corpus, bitwise.
	mono := setsim.Build(docs, tk, setsim.ListsOnly())
	for i := 0; i < checkOps; i++ {
		switch fleetOp(i) {
		case kSelect:
			got, _, err := se.Select(se.Prepare(pool[i%len(pool)]), fleetTau, setsim.SF, nil)
			want, _, werr := mono.Select(mono.Prepare(pool[i%len(pool)]), fleetTau, setsim.SF, nil)
			r.check("select", pool[i%len(pool)], 0, got, want, err, werr)
		case kTopK:
			got, _, err := se.SelectTopK(se.Prepare(pool[i%len(pool)]), topK, setsim.SF, nil)
			want, _, werr := mono.SelectTopK(mono.Prepare(pool[i%len(pool)]), topK, setsim.SF, nil)
			r.check("top-k", pool[i%len(pool)], 0, got, want, err, werr)
		case kBatch:
			qs := make([]setsim.Query, fleetBatch)
			for j := range qs {
				qs[j] = se.Prepare(batchAt(i, j))
			}
			for j, br := range se.SelectBatch(qs, fleetTau, setsim.SF, nil, fleetWorkers) {
				want, _, werr := mono.Select(mono.Prepare(batchAt(i, j)), fleetTau, setsim.SF, nil)
				r.check("batch member", batchAt(i, j), 0, br.Results, want, br.Err, werr)
			}
		}
	}
	mono = nil // the reference engine is garbage before the timed loop

	// Counter pass: selections first, then top-k, so the shard gauges
	// of each phase are separable and the selection counters exact.
	var qc queryCounters
	g0 := se.Metrics().Snapshot().Shard
	for i := 0; i < counterOps; i++ {
		res, st, err := se.Select(se.Prepare(pool[i%len(pool)]), fleetTau, setsim.SF, nil)
		if err == nil {
			qc.add(res, st)
		}
	}
	qc.report(r)
	g1 := se.Metrics().Snapshot().Shard
	if checks := g1.BoundChecks - g0.BoundChecks; checks > 0 {
		skipped := g1.Skipped - g0.Skipped
		r.set("route.prune_ratio", float64(skipped)/float64(checks))
		r.set("route.shards_visited_per_query", float64(checks-skipped)/float64(counterOps))
	}
	nTopK := counterOps / 4
	for i := 0; i < nTopK; i++ {
		se.SelectTopK(se.Prepare(pool[i%len(pool)]), topK, setsim.SF, nil) //nolint:errcheck // counters only
	}
	g2 := se.Metrics().Snapshot().Shard
	r.set("core.merged_per_query", float64(g2.Merged-g1.Merged)/float64(nTopK))
	r.set("core.bound_raises_per_topk", float64(g2.BoundRaises-g1.BoundRaises)/float64(nTopK))

	clients := []*client{newClient(0, cfg)}
	qs := make([]setsim.Query, fleetBatch)
	res := runLoop(clients, time.Duration(cfg.seconds)*time.Second, cfg.trace, func(c *client, i int) error {
		kind := fleetOp(i)
		start := time.Now()
		root := c.tr.begin(spanOp, spanNoParent)
		var err error
		switch kind {
		case kBatch:
			for j := range qs {
				s := c.tr.begin(spanPrepare, root)
				qs[j] = se.Prepare(batchAt(i, j))
				c.tr.end(s)
			}
			s := c.tr.begin(spanBatch, root)
			for _, br := range se.SelectBatch(qs, fleetTau, setsim.SF, nil, fleetWorkers) {
				if br.Err != nil {
					err = br.Err
				}
			}
			c.tr.end(s)
		default:
			s := c.tr.begin(spanPrepare, root)
			q := se.Prepare(pool[i%len(pool)])
			c.tr.end(s)
			if kind == kTopK {
				s = c.tr.begin(spanTopK, root)
				_, _, err = se.SelectTopK(q, topK, setsim.SF, nil)
			} else {
				s = c.tr.begin(spanSelect, root)
				_, _, err = se.Select(q, fleetTau, setsim.SF, nil)
			}
			c.tr.end(s)
		}
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
