package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/tokenize"
	"repro/setsim"
)

// CoreBenchResult is one benchmark case of the `ssbench core` run, in the
// machine-readable shape BENCH_core.json records: wall time, allocation
// counts and posting reads per operation. CI and the PR workflow diff
// these numbers against a committed baseline.
type CoreBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	ElemsPerOp  float64 `json:"elems_per_op,omitempty"`
	// PruneRatio is the fraction of per-shard bound checks that skipped
	// the shard during the timed loop (sharded-pruned cases only).
	PruneRatio float64 `json:"prune_ratio,omitempty"`
}

// CoreBenchReport is the top-level BENCH_core.json document.
type CoreBenchReport struct {
	Rows      int               `json:"rows"`
	Queries   int               `json:"queries"`
	Seed      int64             `json:"seed"`
	Timestamp string            `json:"timestamp"`
	Results   []CoreBenchResult `json:"results"`
	Mutate    *MutateReport     `json:"mutate,omitempty"`
}

// MutateReport records the -mutate workload: an interleaved
// insert/delete/upsert/query run against a LiveEngine with background
// compaction enabled, plus the segment-store counters it left behind.
type MutateReport struct {
	Ops        int     `json:"ops"`
	Inserts    int     `json:"inserts"`
	Deletes    int     `json:"deletes"`
	Upserts    int     `json:"upserts"`
	QueryOps   int     `json:"query_ops"`
	NsPerWrite float64 `json:"ns_per_write"`
	NsPerQuery float64 `json:"ns_per_query"`
	// Segment-store state after the workload drained.
	Segments           int     `json:"segments"`
	MemtableDocs       int     `json:"memtable_docs"`
	Tombstones         int     `json:"tombstones"`
	Compactions        uint64  `json:"compactions"`
	LastCompactionNs   int64   `json:"last_compaction_ns"`
	LastCompactionDocs int     `json:"last_compaction_docs"`
	MaxDrift           float64 `json:"max_drift"`
	// WALTwins re-run a scaled version of the same workload against a
	// durable engine under each WAL sync policy, so the journaling and
	// fsync cost of every durability level is tracked next to the
	// in-memory baseline.
	WALTwins []WALMutateResult `json:"wal_twins,omitempty"`
}

// WALMutateResult is one WAL sync-policy twin of the mutate workload.
type WALMutateResult struct {
	Sync       string  `json:"sync"`
	Ops        int     `json:"ops"`
	Writes     int     `json:"writes"`
	QueryOps   int     `json:"query_ops"`
	NsPerWrite float64 `json:"ns_per_write"`
	NsPerQuery float64 `json:"ns_per_query"`
	// Durable-store state after the workload drained and the engine
	// closed: the manifest generation (checkpoints taken) and the WAL
	// records left in the tail.
	Generation uint64 `json:"generation"`
	WALRecords int    `json:"wal_records"`
}

// runCore measures the steady-state query path — the allocation-free warm
// loop of every algorithm — plus the cold, top-k and batch-parallel
// paths, and writes BENCH_core.json next to printing a table. The
// warm-live cases run the same queries against a compacted
// single-segment LiveEngine, so the segment store's fan-out overhead is
// tracked against the monolithic engine; the sharded cases re-run the
// batch (outer workers pinned to 1) and top-k workloads against
// hash-partitioned engines at 1, 2, 4 and 8 shards so scatter-gather
// scaling is tracked too; with mutate set, an insert/delete/query
// workload then exercises background compaction and its counters land
// in the report's mutate section.
func runCore(setup experiments.Setup, outPath string, mutate bool, only string) {
	var onlyRe *regexp.Regexp
	if only != "" {
		var err error
		if onlyRe, err = regexp.Compile(only); err != nil {
			fmt.Fprintln(os.Stderr, "ssbench: bad -only pattern:", err)
			os.Exit(2)
		}
	}
	fmt.Printf("building environment: %d rows, seed %d ... ", setup.Rows, setup.Seed)
	start := time.Now()
	env := experiments.BuildEnv(setup)
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))

	e := env.E
	rng := rand.New(rand.NewSource(setup.Seed + 10))
	nq := setup.Queries
	if nq <= 0 {
		nq = 16
	}
	queries := make([]core.Query, nq)
	qids := make([]collection.SetID, nq)
	for i := range queries {
		id := collection.SetID(rng.Intn(env.C.NumSets()))
		qids[i] = id
		queries[i] = e.PrepareCounts(env.C.Set(id))
	}

	// The live twin: the same corpus through the mutable path, compacted
	// down to one segment so the warm-live cases isolate the segment
	// store's dispatch overhead rather than multi-segment fan-out.
	le := core.BuildLive(env.Words, tokenize.QGramTokenizer{Q: 3}, core.LiveConfig{
		Config:       core.Config{SkipInterval: setup.SkipInterval},
		NoBackground: true, // BuildLive's final Compact is the only fold needed
	})
	defer le.Close()
	liveQueries := make([]core.LiveQuery, nq)
	for i, id := range qids {
		liveQueries[i] = le.Prepare(env.C.Source(id))
	}

	// The scalar twin: same collection, same inverted lists, but with the
	// word-packed kernels disabled. The kernel=off cases quantify exactly
	// what the packed-bitmap membership probes, word-masked candidate
	// scans and merged rescoring dot products buy on the warm path.
	eScalar := core.NewEngine(env.C, core.Config{
		Store: e.Store(), SkipInterval: setup.SkipInterval,
		NoRelational: true, NoKernel: true,
	})

	warmOn := func(eng *core.Engine, alg core.Algorithm, tau float64) func(b *testing.B) {
		return func(b *testing.B) {
			// Prime the scratch pool so the measurement is steady-state.
			for _, q := range queries {
				if _, _, err := eng.Select(q, tau, alg, nil); err != nil {
					b.Fatal(err)
				}
			}
			var elems int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := eng.Select(queries[i%len(queries)], tau, alg, nil)
				if err != nil {
					b.Fatal(err)
				}
				elems += st.ElementsRead
			}
			b.ReportMetric(float64(elems)/float64(b.N), "elems/op")
		}
	}
	warm := func(alg core.Algorithm, tau float64) func(b *testing.B) {
		return warmOn(e, alg, tau)
	}

	warmLive := func(alg core.Algorithm, tau float64) func(b *testing.B) {
		return func(b *testing.B) {
			for _, q := range liveQueries {
				if _, _, err := le.Select(q, tau, alg, nil); err != nil {
					b.Fatal(err)
				}
			}
			var elems int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := le.Select(liveQueries[i%len(liveQueries)], tau, alg, nil)
				if err != nil {
					b.Fatal(err)
				}
				elems += st.ElementsRead
			}
			b.ReportMetric(float64(elems)/float64(b.N), "elems/op")
		}
	}

	cases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"warm/sort-by-id/tau=0.8", warm(core.SortByID, 0.8)},
		{"warm/ta/tau=0.8", warm(core.TA, 0.8)},
		{"warm/nra/tau=0.8", warm(core.NRA, 0.8)},
		{"warm/ita/tau=0.8", warm(core.ITA, 0.8)},
		{"warm/inra/tau=0.8", warm(core.INRA, 0.8)},
		{"warm/sf/tau=0.8", warm(core.SF, 0.8)},
		{"warm/hybrid/tau=0.8", warm(core.Hybrid, 0.8)},
		{"warm/inra/tau=0.5", warm(core.INRA, 0.5)},
		{"warm/sf/tau=0.5", warm(core.SF, 0.5)},
		{"warm/ta/tau=0.8/kernel=off", warmOn(eScalar, core.TA, 0.8)},
		{"warm/nra/tau=0.8/kernel=off", warmOn(eScalar, core.NRA, 0.8)},
		{"warm/inra/tau=0.8/kernel=off", warmOn(eScalar, core.INRA, 0.8)},
		{"warm/hybrid/tau=0.8/kernel=off", warmOn(eScalar, core.Hybrid, 0.8)},
		{"warm-live/sf/tau=0.8", warmLive(core.SF, 0.8)},
		{"warm-live/inra/tau=0.8", warmLive(core.INRA, 0.8)},
		{"cold/sf/tau=0.8", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh engine has an empty scratch pool: this measures
				// the first-query allocation cost the pool amortizes away.
				fresh := core.NewEngineWithHashes(env.C, e.Store(), nil)
				if _, _, err := fresh.Select(queries[i%len(queries)], 0.8, core.SF, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"topk/sf/k=10", func(b *testing.B) {
			for _, q := range queries {
				if _, _, err := e.SelectTopK(q, 10, core.SF, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.SelectTopK(queries[i%len(queries)], 10, core.SF, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"batch/sf/tau=0.8", func(b *testing.B) {
			e.SelectBatch(queries, 0.8, core.SF, nil, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, br := range e.SelectBatch(queries, 0.8, core.SF, nil, 0) {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
				}
			}
		}},
	}

	// Shard scaling: the same corpus hash-partitioned into K complete
	// engines, running the batch workload with one outer worker — so the
	// per-query shard fan-out is the only parallelism and the K=1 → K=8
	// progression isolates the scatter-gather layer — plus the top-k path,
	// whose merge circulates the global k-th bound across shards.
	for _, sc := range []int{1, 2, 4, 8} {
		k := sc
		se := core.BuildSharded(tokenize.QGramTokenizer{Q: 3}, env.Words, true, k, core.Config{
			SkipInterval: setup.SkipInterval, NoHashes: true, NoRelational: true,
		})
		defer se.Close()
		qs := make([]core.Query, nq)
		for i, id := range qids {
			qs[i] = se.Prepare(env.C.Source(id))
		}
		cases = append(cases,
			struct {
				name string
				fn   func(b *testing.B)
			}{fmt.Sprintf("sharded/batch/sf/tau=0.8/shards=%d", k), func(b *testing.B) {
				se.SelectBatch(qs, 0.8, core.SF, nil, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, br := range se.SelectBatch(qs, 0.8, core.SF, nil, 1) {
						if br.Err != nil {
							b.Fatal(br.Err)
						}
					}
				}
			}},
			struct {
				name string
				fn   func(b *testing.B)
			}{fmt.Sprintf("sharded/topk/sf/k=10/shards=%d", k), func(b *testing.B) {
				for _, q := range qs {
					if _, _, err := se.SelectTopK(q, 10, core.SF, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := se.SelectTopK(qs[i%len(qs)], 10, core.SF, nil); err != nil {
						b.Fatal(err)
					}
				}
			}},
		)
	}

	cases = append(cases, prunedCases(setup, nq)...)

	report := CoreBenchReport{
		Rows:      setup.Rows,
		Queries:   nq,
		Seed:      setup.Seed,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("\n%-52s %14s %12s %12s %12s %8s\n", "case", "ns/op", "allocs/op", "B/op", "elems/op", "prune")
	for _, c := range cases {
		if onlyRe != nil && !onlyRe.MatchString(c.name) {
			continue
		}
		r := testing.Benchmark(c.fn)
		res := CoreBenchResult{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			ElemsPerOp:  r.Extra["elems/op"],
			PruneRatio:  r.Extra["prune-ratio"],
		}
		report.Results = append(report.Results, res)
		fmt.Printf("%-52s %14.0f %12d %12d %12.0f %8.2f\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, res.ElemsPerOp, res.PruneRatio)
	}

	if mutate {
		report.Mutate = runMutate(env, setup)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ssbench:", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s\n", outPath)
}

// clusteredCorpus synthesizes a corpus with natural cluster structure:
// topics with disjoint vocabularies, each document drawing its words from
// a single topic. Similarity-aware partitioning separates the topics into
// different shards, so a selection query — which can only match documents
// of its own topic — gives the router grounds to prune most shards. This
// is the fan-out-to-few shape the sharded-pruned cases measure.
func clusteredCorpus(n int, seed int64) []string {
	const topics, vocab, docWords = 32, 40, 6
	rng := rand.New(rand.NewSource(seed))
	words := make([][]string, topics)
	for t := range words {
		words[t] = make([]string, vocab)
		for w := range words[t] {
			words[t][w] = fmt.Sprintf("t%02dw%02d", t, w)
		}
	}
	docs := make([]string, n)
	for i := range docs {
		tw := words[i%topics]
		s := ""
		for j := 0; j < docWords; j++ {
			if j > 0 {
				s += " "
			}
			s += tw[rng.Intn(len(tw))]
		}
		docs[i] = s
	}
	return docs
}

// prunedCases builds the sharded-pruned benchmark family: routed engines
// over the clustered corpus at 8 and 16 shards, running the threshold and
// top-k workloads with shard pruning on and, as a twin over the identical
// partitions, with pruning disabled per query (Options.NoShardPrune). The
// pruned cases report the prune ratio observed during the timed loop as
// the prune-ratio metric, which lands in BENCH_core.json.
func prunedCases(setup experiments.Setup, nq int) []struct {
	name string
	fn   func(b *testing.B)
} {
	rows := setup.Rows
	if rows > 20000 {
		rows = 20000
	}
	docs := clusteredCorpus(rows, setup.Seed+12)
	rng := rand.New(rand.NewSource(setup.Seed + 13))
	var cases []struct {
		name string
		fn   func(b *testing.B)
	}
	for _, sc := range []int{8, 16} {
		k := sc
		se := core.BuildSharded(tokenize.WordTokenizer{}, docs, true, k, core.Config{
			SkipInterval: setup.SkipInterval, NoHashes: true, NoRelational: true,
		})
		qs := make([]core.Query, nq)
		for i := range qs {
			qs[i] = se.Prepare(docs[rng.Intn(len(docs))])
		}
		sel := func(opts *core.Options, record bool) func(b *testing.B) {
			return func(b *testing.B) {
				for _, q := range qs {
					if _, _, err := se.Select(q, 0.5, core.SF, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				g0 := se.Metrics().Snapshot().Shard
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := se.Select(qs[i%len(qs)], 0.5, core.SF, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if g1 := se.Metrics().Snapshot().Shard; record && g1.BoundChecks > g0.BoundChecks {
					b.ReportMetric(float64(g1.Skipped-g0.Skipped)/float64(g1.BoundChecks-g0.BoundChecks), "prune-ratio")
				}
			}
		}
		topk := func(opts *core.Options, record bool) func(b *testing.B) {
			return func(b *testing.B) {
				for _, q := range qs {
					if _, _, err := se.SelectTopK(q, 10, core.SF, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				g0 := se.Metrics().Snapshot().Shard
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := se.SelectTopK(qs[i%len(qs)], 10, core.SF, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if g1 := se.Metrics().Snapshot().Shard; record && g1.BoundChecks > g0.BoundChecks {
					b.ReportMetric(float64(g1.Skipped-g0.Skipped)/float64(g1.BoundChecks-g0.BoundChecks), "prune-ratio")
				}
			}
		}
		cases = append(cases,
			struct {
				name string
				fn   func(b *testing.B)
			}{fmt.Sprintf("sharded-pruned/select/sf/tau=0.5/shards=%d", k), sel(nil, true)},
			struct {
				name string
				fn   func(b *testing.B)
			}{fmt.Sprintf("sharded-pruned/select/sf/tau=0.5/shards=%d/prune=off", k), sel(&core.Options{NoShardPrune: true}, false)},
			struct {
				name string
				fn   func(b *testing.B)
			}{fmt.Sprintf("sharded-pruned/topk/sf/k=10/shards=%d", k), topk(nil, true)},
			struct {
				name string
				fn   func(b *testing.B)
			}{fmt.Sprintf("sharded-pruned/topk/sf/k=10/shards=%d/prune=off", k), topk(&core.Options{NoShardPrune: true}, false)},
		)
	}
	return cases
}

// runMutate seeds a background-compacting LiveEngine from the corpus,
// then interleaves inserts, deletes, upserts and queries against it. The
// flush threshold and segment cap are sized down so the workload crosses
// them many times: the report's counters prove compaction ran, and the
// per-op timings show what queries cost while the store churns.
func runMutate(env *experiments.Env, setup experiments.Setup) *MutateReport {
	seedN := len(env.Words)
	if seedN > 20000 {
		seedN = 20000
	}
	ops := 20000
	fmt.Printf("\nmutation workload: %d seed docs, %d ops ... ", seedN, ops)
	start := time.Now()

	le := core.NewLive(tokenize.QGramTokenizer{Q: 3}, core.LiveConfig{
		Config:         core.Config{SkipInterval: setup.SkipInterval},
		FlushThreshold: 2048,
		MaxSegments:    4,
	})
	defer le.Close()
	ids := make([]collection.SetID, 0, seedN)
	for _, w := range env.Words[:seedN] {
		if id, err := le.Insert(w); err == nil {
			ids = append(ids, id)
		}
	}

	rng := rand.New(rand.NewSource(setup.Seed + 11))
	rep := &MutateReport{Ops: ops}
	var writeNs, queryNs int64
	word := func() string { return env.Words[rng.Intn(len(env.Words))] }
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 50:
			t0 := time.Now()
			if id, err := le.Insert(word()); err == nil {
				ids = append(ids, id)
			}
			writeNs += time.Since(t0).Nanoseconds()
			rep.Inserts++
		case r < 70 && len(ids) > 0:
			j := rng.Intn(len(ids))
			t0 := time.Now()
			le.Delete(ids[j])
			writeNs += time.Since(t0).Nanoseconds()
			ids[j] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			rep.Deletes++
		case r < 80 && len(ids) > 0:
			j := rng.Intn(len(ids))
			t0 := time.Now()
			if id, err := le.Upsert(ids[j], word()); err == nil {
				ids[j] = id
			}
			writeNs += time.Since(t0).Nanoseconds()
			rep.Upserts++
		default:
			w := word()
			t0 := time.Now()
			q := le.Prepare(w)
			le.Select(q, 0.8, core.SF, nil) //nolint:errcheck // mixed-state latency probe
			queryNs += time.Since(t0).Nanoseconds()
			rep.QueryOps++
		}
	}
	if n := rep.Inserts + rep.Deletes + rep.Upserts; n > 0 {
		rep.NsPerWrite = float64(writeNs) / float64(n)
	}
	if rep.QueryOps > 0 {
		rep.NsPerQuery = float64(queryNs) / float64(rep.QueryOps)
	}

	st := le.Stats()
	rep.Segments = st.Segments
	rep.MemtableDocs = st.Memtable
	rep.Tombstones = st.Tombstones
	rep.Compactions = st.Compactions
	rep.LastCompactionNs = st.LastCompaction.Nanoseconds()
	rep.LastCompactionDocs = st.LastCompactionDocs
	rep.MaxDrift = st.MaxDrift
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  %d inserts, %d deletes, %d upserts, %d queries (%.0f ns/write, %.0f ns/query)\n",
		rep.Inserts, rep.Deletes, rep.Upserts, rep.QueryOps, rep.NsPerWrite, rep.NsPerQuery)
	fmt.Printf("  %d segments, %d memtable docs, %d tombstones, %d compactions (last folded %d docs in %v), drift %.3f\n",
		rep.Segments, rep.MemtableDocs, rep.Tombstones, rep.Compactions,
		rep.LastCompactionDocs, st.LastCompaction, rep.MaxDrift)

	for _, pol := range []setsim.SyncPolicy{setsim.SyncAlways, setsim.SyncGroup, setsim.SyncOff} {
		rep.WALTwins = append(rep.WALTwins, runMutateWAL(env, setup, pol))
	}
	return rep
}

// runMutateWAL is one durable twin of the mutate workload: the same
// interleaved mix against an OpenDurable engine journaling every
// mutation under the given sync policy, with checkpoints on the default
// cadence. The op count is scaled down because sync=always pays one
// fsync per write.
func runMutateWAL(env *experiments.Env, setup experiments.Setup, pol setsim.SyncPolicy) WALMutateResult {
	seedN := len(env.Words)
	if seedN > 4000 {
		seedN = 4000
	}
	ops := 4000
	fmt.Printf("wal twin sync=%s: %d seed docs, %d ops ... ", pol, seedN, ops)
	start := time.Now()

	dir, err := os.MkdirTemp("", "ssbench-wal-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	path := dir + "/store.sssnap"
	le, _, err := setsim.OpenDurable(path, setsim.LiveConfig{
		Config:         core.Config{SkipInterval: setup.SkipInterval},
		FlushThreshold: 2048,
		MaxSegments:    4,
		// Low enough that the workload crosses several checkpoints, so
		// manifest rotation and WAL truncation costs land in the numbers.
		CheckpointEvery: 1024,
	}, setsim.DurableOptions{Sync: pol})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssbench:", err)
		os.Exit(1)
	}
	ids := make([]collection.SetID, 0, seedN)
	for _, w := range env.Words[:seedN] {
		if id, err := le.Insert(w); err == nil {
			ids = append(ids, id)
		}
	}

	rng := rand.New(rand.NewSource(setup.Seed + 11))
	res := WALMutateResult{Sync: pol.String(), Ops: ops}
	var writeNs, queryNs int64
	word := func() string { return env.Words[rng.Intn(len(env.Words))] }
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 50:
			t0 := time.Now()
			if id, err := le.Insert(word()); err == nil {
				ids = append(ids, id)
			}
			writeNs += time.Since(t0).Nanoseconds()
			res.Writes++
		case r < 70 && len(ids) > 0:
			j := rng.Intn(len(ids))
			t0 := time.Now()
			le.Delete(ids[j])
			writeNs += time.Since(t0).Nanoseconds()
			ids[j] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			res.Writes++
		case r < 80 && len(ids) > 0:
			j := rng.Intn(len(ids))
			t0 := time.Now()
			if id, err := le.Upsert(ids[j], word()); err == nil {
				ids[j] = id
			}
			writeNs += time.Since(t0).Nanoseconds()
			res.Writes++
		default:
			w := word()
			t0 := time.Now()
			q := le.Prepare(w)
			le.Select(q, 0.8, core.SF, nil) //nolint:errcheck // mixed-state latency probe
			queryNs += time.Since(t0).Nanoseconds()
			res.QueryOps++
		}
	}
	le.Close()
	if res.Writes > 0 {
		res.NsPerWrite = float64(writeNs) / float64(res.Writes)
	}
	if res.QueryOps > 0 {
		res.NsPerQuery = float64(queryNs) / float64(res.QueryOps)
	}
	if rep, err := setsim.Verify(path); err == nil {
		res.Generation = rep.Generation
		res.WALRecords = rep.WALRecords
	} else {
		fmt.Fprintln(os.Stderr, "ssbench: wal twin verify:", err)
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  %d writes, %d queries (%.0f ns/write, %.0f ns/query), generation %d, %d wal records\n",
		res.Writes, res.QueryOps, res.NsPerWrite, res.NsPerQuery, res.Generation, res.WALRecords)
	return res
}
