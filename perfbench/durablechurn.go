package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/setsim"
)

// durable-churn: an OpenDurable store seeded in bulk (BuildLive +
// SaveLive, then OpenDurable) from paper-words-style words, under the
// library default SyncGroup with background compaction and automatic
// checkpoints on. Two closed-loop clients each mix Insert/Delete/Upsert
// (half the operations) with SF Select and SelectTopK. At the end the
// store is copied as a crash image and reopened with OpenDurable.
const (
	churnRows    = 200_000
	churnPool    = 8192
	churnClients = 2
	// statsEvery is how often (in client 0's operations) the segment
	// store's Stats are sampled.
	statsEvery = 16
	// checkpointEvery bounds the un-checkpointed WAL tail, so automatic
	// checkpoints (full compaction + segment packages) happen several
	// times within one timed loop rather than never.
	checkpointEvery = 1024
)

// Ids of the seeded corpus are split four ways: client c may mutate the
// ids ≡ c (mod 4); ids ≡ 2, 3 are never mutated, and queries are drawn
// from their words only, so no query can lose every gram to deletions.
const churnSplit = 4

func churnMutable(id setsim.SetID) (owner int, ok bool) {
	o := int(id % churnSplit)
	return o, o < churnClients
}

// churnState is one client's view of the documents it owns: the
// acknowledged live documents and the acknowledged deletions.
type churnState struct {
	rng       *rand.Rand
	owned     []setsim.SetID
	src       map[setsim.SetID]string
	deleted   []setsim.SetID
	writes    int64
	submitted int64 // bytes of document text passed to Insert/Upsert
	// Stats samples (client 0 only).
	samples                    int
	segs, memtable, tombstones float64
}

func runDurableChurn(cfg config) (*report, error) {
	r := newReport("durable-churn")
	rng := rand.New(rand.NewSource(cfg.seed))
	words := wordCorpus(rng, cfg.scaled(churnRows))
	var fixed []string
	for i, w := range words {
		if _, ok := churnMutable(setsim.SetID(i)); !ok {
			fixed = append(fixed, w)
		}
	}
	pool := editedQueries(rng, fixed, gramSet(fixed), cfg.scaled(churnPool))
	states := make([]*churnState, churnClients)
	for c := range states {
		states[c] = &churnState{rng: rand.New(rand.NewSource(cfg.seed*1000003 + int64(c) + 1)), src: map[setsim.SetID]string{}}
	}
	for i, w := range words {
		if c, ok := churnMutable(setsim.SetID(i)); ok {
			states[c].owned = append(states[c].owned, setsim.SetID(i))
			states[c].src[setsim.SetID(i)] = w
		}
	}
	r.fingerprint = fingerprint(words, pool)

	tk := setsim.QGramTokenizer{Q: 3}
	lcfg := setsim.LiveConfig{Config: setsim.ListsOnly(), CheckpointEvery: checkpointEvery}
	// The bulk-load engine compacts once at the end of BuildLive; with
	// background compaction on, how much work it does first would depend
	// on goroutine timing.
	bulkCfg := lcfg
	bulkCfg.NoBackground = true
	ph := cfg.phaseTracer()
	var le *setsim.LiveEngine
	var info setsim.SnapshotInfo
	var path string
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if le != nil {
			ph.timed(spanClose, le.Close)
			le = nil
		}
		heapInuseMiB()
		path = filepath.Join(cfg.workDir, fmt.Sprintf("store%d", i), "churn.sssnap")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		var err error
		start := time.Now()
		var bulk *setsim.LiveEngine
		ph.timed(spanBuild, func() { bulk = setsim.BuildLive(words, tk, bulkCfg) })
		ph.timed(spanSave, func() { err = setsim.SaveLive(path, bulk) })
		ph.timed(spanClose, bulk.Close)
		if err != nil {
			return nil, fmt.Errorf("seed store: %w", err)
		}
		ph.timed(spanOpen, func() { le, info, err = setsim.OpenDurable(path, lcfg, setsim.DurableOptions{}) })
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer le.Close()
	if le.NumDocs() != len(words) {
		return nil, fmt.Errorf("seeded %d documents, want %d", le.NumDocs(), len(words))
	}
	r.set("setup_s", median(setups))
	r.set("heap_mb", heapInuseMiB())

	var qc queryCounters
	for i := 0; i < counterOps; i++ {
		res, st, err := le.Select(le.Prepare(pool[i%len(pool)]), selectTaus[i%len(selectTaus)], setsim.SF, nil)
		if err == nil {
			qc.add(res, st)
		}
	}
	qc.report(r)

	clients := make([]*client, churnClients)
	for c := range clients {
		clients[c] = newClient(c, cfg)
	}
	io0, stats0 := readIO(), le.Stats()
	res := runLoop(clients, time.Duration(cfg.seconds)*time.Second, cfg.trace, func(c *client, i int) error {
		st := states[c.id]
		if c.id == 0 && i%statsEvery == 0 {
			ls := le.Stats()
			st.samples++
			st.segs += float64(ls.Segments)
			st.memtable += float64(ls.Memtable)
			st.tombstones += float64(ls.Tombstones)
		}
		return churnOp(c, st, le, words, pool)
	})
	io1, stats1 := readIO(), le.Stats()
	loopMetrics(r, res, cfg.trace)

	var writes, submitted int64
	for _, st := range states {
		writes += st.writes
		submitted += st.submitted
	}
	if s := states[0]; s.samples > 0 {
		r.set("live.segments_mean", s.segs/float64(s.samples))
		r.set("live.memtable_docs_mean", s.memtable/float64(s.samples))
		r.set("live.tombstones_mean", s.tombstones/float64(s.samples))
	}
	if writes > 0 {
		r.set("live.compactions_per_kwrite", 1000*float64(stats1.Compactions-stats0.Compactions)/float64(writes))
		if io0.ok && io1.ok {
			r.set("wal.write_syscalls_per_write", float64(io1.syscw-io0.syscw)/float64(writes))
		}
	}
	if submitted > 0 && io0.ok && io1.ok {
		r.set("wal.bytes_written_per_user_byte", float64(io1.wchar-io0.wchar)/float64(submitted))
	}
	r.set("live.last_compaction_ms", float64(stats1.LastCompaction.Microseconds())/1e3)

	if err := churnRecovery(cfg, r, ph, le, lcfg, path, info, states, words, pool); err != nil {
		return nil, err
	}
	return r, writeTrace(cfg, r, ph, res)
}

// churnOp runs one operation of a churn client: 20% Insert, 15% Delete,
// 15% Upsert, 35% Select at a cycling τ and 15% SelectTopK. Deletes and
// upserts pick one of the client's own live documents.
func churnOp(c *client, st *churnState, le *setsim.LiveEngine, words, pool []string) error {
	x := st.rng.Intn(100)
	if x < 50 && (x < 20 || len(st.owned) == 0) {
		text := newDocText(st.rng, words)
		start := time.Now()
		root := c.tr.begin(spanOp, spanNoParent)
		s := c.tr.begin(spanInsert, root)
		id, err := le.Insert(text)
		c.tr.end(s)
		c.tr.end(root)
		if err != nil {
			return err
		}
		c.record(kWrite, start)
		st.owned = append(st.owned, id)
		st.src[id] = text
		st.writes++
		st.submitted += int64(len(text))
		return nil
	}
	if x < 50 {
		k := st.rng.Intn(len(st.owned))
		id := st.owned[k]
		if x < 35 {
			start := time.Now()
			root := c.tr.begin(spanOp, spanNoParent)
			s := c.tr.begin(spanDelete, root)
			ok := le.Delete(id)
			c.tr.end(s)
			c.tr.end(root)
			if !ok {
				return fmt.Errorf("delete %d did not apply", id)
			}
			c.record(kWrite, start)
			st.owned[k] = st.owned[len(st.owned)-1]
			st.owned = st.owned[:len(st.owned)-1]
		} else {
			text := newDocText(st.rng, words)
			start := time.Now()
			root := c.tr.begin(spanOp, spanNoParent)
			s := c.tr.begin(spanUpsert, root)
			nid, err := le.Upsert(id, text)
			c.tr.end(s)
			c.tr.end(root)
			if err != nil {
				return err
			}
			c.record(kWrite, start)
			st.owned[k] = nid
			st.src[nid] = text
			st.submitted += int64(len(text))
		}
		delete(st.src, id)
		st.deleted = append(st.deleted, id)
		st.writes++
		return nil
	}

	text := pool[st.rng.Intn(len(pool))]
	tau := selectTaus[st.rng.Intn(len(selectTaus))]
	kind := kSelect
	if x >= 85 {
		kind = kTopK
	}
	start := time.Now()
	root := c.tr.begin(spanOp, spanNoParent)
	s := c.tr.begin(spanPrepare, root)
	q := le.Prepare(text)
	c.tr.end(s)
	var err error
	if kind == kTopK {
		s = c.tr.begin(spanTopK, root)
		_, _, err = le.SelectTopK(q, topK, setsim.SF, nil)
	} else {
		s = c.tr.begin(spanSelect, root)
		_, _, err = le.Select(q, tau, setsim.SF, nil)
	}
	c.tr.end(s)
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.record(kind, start)
	return nil
}

// newDocText is a new document: a corpus word with one or two edits.
func newDocText(rng *rand.Rand, words []string) string {
	for {
		if s := dataset.Modify(rng, words[rng.Intn(len(words))], 1+rng.Intn(2)); s != "" {
			return s
		}
	}
}

// churnRecovery is the end of the churn run. It copies the store as a
// crash image, checkpoints the live engine (timed), records its answers,
// closes it, then reopens copies of the image with OpenDurable (timed)
// and checks that every acknowledged write survived and that sampled
// queries answer exactly as the live engine did.
func churnRecovery(cfg config, r *report, ph *tracer, le *setsim.LiveEngine, lcfg setsim.LiveConfig, path string, info setsim.SnapshotInfo,
	states []*churnState, words, pool []string) error {
	image := filepath.Join(cfg.workDir, "image", filepath.Base(path))
	if err := copyStore(path, image); err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	var rep *setsim.VerifyReport
	var err error
	ph.timed(spanVerify, func() { rep, err = setsim.Verify(image) })
	if err != nil {
		return fmt.Errorf("verify crash image: %w", err)
	}
	if !rep.OK {
		r.mismatch("crash image failed verification")
	}
	r.set("segpack.checkpoints", float64(rep.Generation-info.Generation))
	disk, err := storeBytes(image, rep)
	if err != nil {
		return err
	}
	var liveBytes int64
	for i, w := range words {
		if _, ok := churnMutable(setsim.SetID(i)); !ok {
			liveBytes += int64(len(w))
		}
	}
	for _, st := range states {
		for _, s := range st.src {
			liveBytes += int64(len(s))
		}
	}
	r.set("disk_bytes_per_live_byte", float64(disk)/float64(liveBytes))

	var ckErr error
	r.set("segpack.checkpoint_ms", 1e3*ph.timed(spanCheckpoint, func() { ckErr = le.CheckpointNow() }))
	if ckErr != nil {
		return fmt.Errorf("checkpoint: %w", ckErr)
	}
	type answer struct {
		res []setsim.Result
		err error
	}
	liveAns := make([]answer, 0, 2*checkOps)
	for i := 0; i < checkOps; i++ {
		q := le.Prepare(pool[i])
		res, _, err := le.Select(q, selectTaus[i%len(selectTaus)], setsim.SF, nil)
		liveAns = append(liveAns, answer{res, err})
		res, _, err = le.SelectTopK(q, topK, setsim.SF, nil)
		liveAns = append(liveAns, answer{res, err})
	}
	ph.timed(spanClose, le.Close)

	// Reopen three copies of the image; the median reopen is recovery_s.
	var re *setsim.LiveEngine
	var reInfo setsim.SnapshotInfo
	recov := make([]float64, 0, setupRepeats)
	for k := 0; k < setupRepeats; k++ {
		p := filepath.Join(cfg.workDir, fmt.Sprintf("reopen%d", k), filepath.Base(path))
		if err := copyStore(image, p); err != nil {
			return err
		}
		var e *setsim.LiveEngine
		var inf setsim.SnapshotInfo
		var oerr error
		recov = append(recov, ph.timed(spanOpen, func() {
			e, inf, oerr = setsim.OpenDurable(p, lcfg, setsim.DurableOptions{})
		}))
		if oerr != nil {
			return fmt.Errorf("reopen crash image: %w", oerr)
		}
		if re == nil {
			re, reInfo = e, inf
		} else {
			ph.timed(spanClose, e.Close)
		}
	}
	defer re.Close()
	r.set("recovery_s", median(recov))
	r.set("wal.tail_records_at_recovery", float64(reInfo.WALTail))

	// Every acknowledged write is present: exactly the expected live
	// documents, and none of the acknowledged deletions.
	wantLive := 0
	for i, w := range words {
		if _, ok := churnMutable(setsim.SetID(i)); !ok {
			wantLive++
			if s, ok := re.Source(setsim.SetID(i)); !ok || s != w {
				r.mismatch("fixed document %d lost after reopen", i)
			}
		}
	}
	for _, st := range states {
		wantLive += len(st.src)
		for id, want := range st.src {
			if s, ok := re.Source(id); !ok || s != want {
				r.mismatch("acknowledged document %d (%q) lost after reopen: got %q, %v", id, want, s, ok)
			}
		}
		for _, id := range st.deleted {
			if _, ok := re.Source(id); ok {
				r.mismatch("acknowledged deletion of %d lost after reopen", id)
			}
		}
	}
	if re.NumLive() != wantLive {
		r.mismatch("reopened store has %d live documents, want %d", re.NumLive(), wantLive)
	}

	// Sampled queries: after a full compaction both engines equal a
	// static build over the same live documents, so answers match
	// bitwise.
	ph.timed(spanCompact, func() { re.Compact() })
	for i := 0; i < checkOps; i++ {
		q := re.Prepare(pool[i])
		res, _, err := re.Select(q, selectTaus[i%len(selectTaus)], setsim.SF, nil)
		r.check("reopened select", pool[i], 0, res, liveAns[2*i].res, err, liveAns[2*i].err)
		res, _, err = re.SelectTopK(q, topK, setsim.SF, nil)
		r.check("reopened top-k", pool[i], 0, res, liveAns[2*i+1].res, err, liveAns[2*i+1].err)
	}
	return nil
}

// copyStore copies the store at src (manifest, packages, WAL — every
// file in its directory) to dst, as a crash at this instant would leave
// it. A checkpoint may run concurrently, so the copy is retried until
// the manifest is unchanged across it: packages referenced by a
// manifest are only removed after a newer manifest replaced it, and the
// WAL is rewritten atomically.
func copyStore(src, dst string) error {
	srcDir, dstDir := filepath.Dir(src), filepath.Dir(dst)
	for attempt := 0; attempt < 50; attempt++ {
		before, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dstDir); err != nil {
			return err
		}
		if err := os.MkdirAll(dstDir, 0o755); err != nil {
			return err
		}
		entries, err := os.ReadDir(srcDir)
		if err != nil {
			return err
		}
		ok := true
		for _, e := range entries {
			if !e.Type().IsRegular() || e.Name() == filepath.Base(src) {
				continue
			}
			if err := copyFile(filepath.Join(srcDir, e.Name()), filepath.Join(dstDir, e.Name())); err != nil {
				if errors.Is(err, os.ErrNotExist) {
					ok = false
					break
				}
				return err
			}
		}
		after, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		if ok && bytes.Equal(before, after) {
			return os.WriteFile(filepath.Join(dstDir, filepath.Base(dst)), before, 0o644)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("store %s kept changing during the copy", src)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// storeBytes is the on-disk size of a store: manifest, the packages it
// references, and the WAL.
func storeBytes(path string, rep *setsim.VerifyReport) (int64, error) {
	names := []string{filepath.Base(path), filepath.Base(path) + ".wal"}
	for _, p := range rep.Packs {
		names = append(names, p.Ref.Name)
	}
	var total int64
	for _, n := range names {
		fi, err := os.Stat(filepath.Join(filepath.Dir(path), n))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
