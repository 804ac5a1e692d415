package core

import (
	"context"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/collection"
	"repro/internal/sim"
)

// Top-k processing is the first extension the paper's conclusion plans
// (§X). Both variants below turn the selection threshold τ into a rising
// bound: the k-th largest score lower bound seen so far. Lower bounds
// only grow, so every pruning rule of the selection algorithms stays
// sound with the dynamic τ substituted in.

// SelectTopK returns the k highest-scoring sets for q, using alg ∈
// {Naive, INRA, SF}. Ties at the k-th position are broken by ascending
// id. Results are sorted by descending score. It is SelectTopKCtx with a
// background context.
func (e *Engine) SelectTopK(q Query, k int, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	return e.SelectTopKCtx(context.Background(), q, k, alg, opts)
}

// SelectTopKCtx is SelectTopK under a context: cancellation or deadline
// expiry stops the scan mid-list and returns ctx.Err() with the Stats
// accumulated so far (same granularity guarantee as SelectCtx).
func (e *Engine) SelectTopKCtx(ctx context.Context, q Query, k int, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	return e.selectTopKShard(ctx, q, k, alg, opts, nil)
}

// sharedTau circulates the global k-th-score lower bound across the
// shards of a scatter-gather top-k query: whenever any shard's local
// k-th bound rises, every other shard's next liveTau read picks it up
// and prunes with the tighter Theorem 1 window. The bound is a lower
// bound on the global k-th true score, so the pruning stays sound in
// every shard (a candidate pruned against it cannot belong to the
// global top k). Stored as float64 bits in an atomic; raises are
// CAS-max, so the bound only grows.
type sharedTau struct {
	bits   atomic.Uint64
	raises atomic.Uint64 // successful raises, reported by the shard: metrics line
}

// load returns the current shared bound (0 when unsharded: nil receiver).
func (st *sharedTau) load() float64 {
	if st == nil {
		return 0
	}
	return math.Float64frombits(st.bits.Load())
}

// raise lifts the shared bound to at least tau.
func (st *sharedTau) raise(tau float64) {
	if st == nil || tau <= minPositiveTau {
		return
	}
	for {
		old := st.bits.Load()
		if math.Float64frombits(old) >= tau {
			return
		}
		if st.bits.CompareAndSwap(old, math.Float64bits(tau)) {
			st.raises.Add(1)
			return
		}
	}
}

// liveTau is the dynamic pruning threshold with the cross-shard bound
// folded in. With shared == nil it is exactly the local k-th bound.
func liveTau(b *kthBound, shared *sharedTau) float64 {
	t := b.tau()
	if s := shared.load(); s > t {
		t = s
	}
	return t
}

// selectTopKShard is SelectTopKCtx with an optional cross-shard bound
// (nil when the engine is queried stand-alone; the sharded executor
// passes one sharedTau to all shards of a query).
func (e *Engine) selectTopKShard(ctx context.Context, q Query, k int, alg Algorithm, opts *Options, shared *sharedTau) ([]Result, Stats, error) {
	p, err := topkPlan(q, k, alg, opts)
	if err != nil {
		return planDone(err)
	}
	return e.runPlan(ctx, q, p, shared)
}

func sortTopK(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].ID < rs[j].ID
	})
}

// topkNaive is the oracle: full scan, exact top-k.
func (e *Engine) topkNaive(s *queryScratch, cc *canceller, q Query, k int) ([]Result, error) {
	all, err := e.selectNaive(s, cc, q, minPositiveTau, nil)
	if err != nil {
		return nil, err
	}
	sortTopK(all)
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// minPositiveTau admits any set sharing at least one token with the
// query (every real score exceeds it).
const minPositiveTau = 1e-30

// effTau converts a dynamic threshold into the slack-adjusted value used
// for geometric bounds, floored so the bounds stay positive while the
// result heap is still filling.
func effTau(tau float64) float64 {
	t := tau - sim.ScoreEpsilon
	if t < minPositiveTau {
		t = minPositiveTau
	}
	return t
}

// kthBound tracks the k-th largest score lower bound across *distinct*
// candidates — the dynamic τ. A candidate whose lower bound grows updates
// its existing entry (increase-key) rather than occupying several heap
// slots, which would inflate τ and prune true answers. It is an indexed
// min-heap of at most k entries. The heap arrays and position map live in
// the query scratch and are reset, not reallocated, per query.
type kthBound struct {
	k      int
	ids    []collection.SetID
	scores []float64
	pos    map[collection.SetID]int
}

// reset readies the bound for a new query with capacity k.
func (b *kthBound) reset(k int) {
	b.k = k
	b.ids = b.ids[:0]
	b.scores = b.scores[:0]
	if b.pos == nil {
		b.pos = make(map[collection.SetID]int, k)
	} else {
		clear(b.pos)
	}
}

func (b *kthBound) swap(i, j int) {
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
	b.scores[i], b.scores[j] = b.scores[j], b.scores[i]
	b.pos[b.ids[i]] = i
	b.pos[b.ids[j]] = j
}

func (b *kthBound) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if b.scores[parent] <= b.scores[i] {
			return
		}
		b.swap(i, parent)
		i = parent
	}
}

func (b *kthBound) siftDown(i int) {
	n := len(b.scores)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && b.scores[l] < b.scores[min] {
			min = l
		}
		if r < n && b.scores[r] < b.scores[min] {
			min = r
		}
		if min == i {
			return
		}
		b.swap(i, min)
		i = min
	}
}

// offer records candidate id's current lower bound. With the heap full,
// a score at or below the minimum changes nothing: an entry already held
// scores at least the minimum, and an outsider would not displace it.
func (b *kthBound) offer(id collection.SetID, score float64) {
	if len(b.scores) == b.k && score <= b.scores[0] {
		return
	}
	if i, ok := b.pos[id]; ok {
		if score > b.scores[i] {
			b.scores[i] = score
			b.siftDown(i)
		}
		return
	}
	if len(b.scores) < b.k {
		b.ids = append(b.ids, id)
		b.scores = append(b.scores, score)
		b.pos[id] = len(b.scores) - 1
		b.siftUp(len(b.scores) - 1)
		return
	}
	if score > b.scores[0] {
		delete(b.pos, b.ids[0])
		b.ids[0], b.scores[0] = id, score
		b.pos[id] = 0
		b.siftDown(0)
	}
}

// tau is the current pruning threshold: the k-th best lower bound across
// distinct candidates, or a tiny positive floor while fewer than k exist.
func (b *kthBound) tau() float64 {
	if len(b.scores) < b.k {
		return minPositiveTau
	}
	return b.scores[0]
}

// offerShared records a candidate lower bound and publishes the local
// k-th bound to the other shards when it may have risen.
func offerShared(b *kthBound, shared *sharedTau, id collection.SetID, score float64) {
	b.offer(id, score)
	if shared != nil {
		shared.raise(b.tau())
	}
}

// topkSF runs Shortest-First with the rising bound: per-list cutoffs λᵢ
// and viability tests are re-evaluated against the current τ, which
// tightens as candidate lower bounds accumulate. The candidate machinery
// is the same slab-and-index-slice layout as selectSF.
func (e *Engine) topkSF(s *queryScratch, cc *canceller, q Query, k int, o *Options, stats *Stats, shared *sharedTau) ([]Result, error) {
	lists := e.openLists(s, cc, q, 0, o, stats) // no static Theorem 1 window: τ starts at ~0
	n := len(lists)
	suffix := resliceFloats(s.f0, n+1)
	s.f0 = suffix
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + q.Tokens[i].IDFSq
	}

	bound := &s.kth
	bound.reset(k)
	s.sf = s.sf[:0]
	c := s.i0[:0]

	for i := range lists {
		l := &lists[i]
		news := s.i1[:0]
		mergePtr := 0
		lastViable := len(c) - 1
		for lastViable >= 0 && s.sf[c[lastViable]].dead {
			lastViable--
		}
		// µᵢ = min(λᵢ, len(q)/τ) depends on τ alone within a list, and τ
		// only rises: recompute it when τ does, not per posting.
		lastTau, mu := -1.0, 0.0
		for !l.done && l.valid() {
			if cc.stop() {
				s.i0, s.i1 = c, news
				return nil, cc.err
			}
			p := l.posting()
			tau := liveTau(bound, shared)
			if tau > lastTau {
				lastTau = tau
				mu = min(suffix[i]/(effTau(tau)*q.Len), q.Len/effTau(tau))
			}
			for mergePtr < len(c) && sfBefore(&s.sf[c[mergePtr]], p) {
				cand := &s.sf[c[mergePtr]]
				mergePtr++
				if cand.dead {
					continue
				}
				if !sim.Meets(cand.lower+suffix[i+1]/(q.Len*cand.len), tau) {
					cand.dead = true
					for lastViable >= 0 && s.sf[c[lastViable]].dead {
						lastViable--
					}
				}
			}
			stop := mu
			if lastViable >= 0 && s.sf[c[lastViable]].len > stop {
				stop = s.sf[c[lastViable]].len
			}
			if p.Len > stop {
				break
			}
			stats.ElementsRead++
			l.next()
			// Positional lookup as in selectSF. A candidate killed under
			// an earlier τ stays out: τ only rises.
			if mergePtr < len(c) && s.sf[c[mergePtr]].id == p.ID {
				cand := &s.sf[c[mergePtr]]
				cand.lower += l.w(q.Len, p.Len)
				offerShared(bound, shared, cand.id, cand.lower)
				continue
			}
			if sim.Meets(suffix[i]/(q.Len*p.Len), tau) {
				w := l.w(q.Len, p.Len)
				s.sf = append(s.sf, sfCand{id: p.ID, len: p.Len, lower: w})
				news = append(news, int32(len(s.sf)-1))
				offerShared(bound, shared, p.ID, w)
				stats.CandidatesInserted++
			}
		}

		stats.CandidateScans++
		tau := liveTau(bound, shared)
		merged := s.i2[:0]
		oi, ni := 0, 0
		for oi < len(c) || ni < len(news) {
			if cc.stop() {
				s.i0, s.i1, s.i2 = c, news, merged
				return nil, cc.err
			}
			var slot int32
			if oi < len(c) && (ni >= len(news) || sfCandBefore(&s.sf[c[oi]], &s.sf[news[ni]])) {
				slot = c[oi]
				oi++
				take := &s.sf[slot]
				if take.dead {
					continue
				}
				if !sim.Meets(take.lower+suffix[i+1]/(q.Len*take.len), tau) {
					take.dead = true
					continue
				}
			} else {
				slot = news[ni]
				ni++
			}
			merged = append(merged, slot)
		}
		old := c
		c = merged
		s.i1 = news
		s.i2 = old[:0]
	}

	tau := liveTau(bound, shared)
	out := s.results[:0]
	for _, slot := range c {
		cand := &s.sf[slot]
		if !cand.dead && sim.Meets(cand.lower, tau) {
			out = append(out, Result{ID: cand.id, Score: cand.lower})
		}
	}
	s.i0 = c
	s.results = out
	return out, listsErr(lists)
}

// topkINRA runs iNRA's round-robin with the rising bound, over the same
// candidate slab and id-table as selectINRA.
func (e *Engine) topkINRA(s *queryScratch, cc *canceller, q Query, k int, o *Options, stats *Stats, shared *sharedTau) ([]Result, error) {
	lists := e.openLists(s, cc, q, 0, o, stats)
	fillIDFSq(s, q)
	n := len(lists)
	s.tbl.reset()
	s.imp = s.imp[:0]
	s.arena = s.arena[:0]
	live := 0
	bound := &s.kth
	bound.reset(k)
	out := s.results[:0]
	defer func() { s.results = out }()

	scanFrom := 0 // s.imp[:scanFrom] is all dead; dead never revives

	for {
		tau := liveTau(bound, shared)
		hi := q.Len / effTau(tau)
		alive := false
		for i := range lists {
			l := &lists[i]
			if l.done {
				continue
			}
			if cc.stop() {
				return nil, cc.err
			}
			p, ok := l.frontier()
			if !ok {
				l.done = true
				continue
			}
			stats.ElementsRead++
			l.next()
			if p.Len > hi {
				l.done = true
				continue
			}
			alive = true
			if slot := s.tbl.get(p.ID); slot >= 0 && !s.imp[slot].dead {
				c := &s.imp[slot]
				c.resolveSeen(i, l.idfSq, l.w(q.Len, p.Len))
				offerShared(bound, shared, c.id, c.lower)
				if c.nResolved == n {
					// Round-robin accumulation order is list-state
					// dependent; every completion emits the canonical
					// rescore (the final sortTopK cut then ranks
					// partition-independent values).
					out = append(out, Result{ID: c.id, Score: e.rescore(s, q, c.id)})
					c.dead = true
					live--
				}
				continue
			}
			if slot := admit(s, lists, i, p, q, tau); slot >= 0 {
				live++
				offerShared(bound, shared, p.ID, s.imp[slot].lower)
				stats.CandidatesInserted++
			}
		}
		stats.Rounds++

		if !alive {
			for ci := scanFrom; ci < len(s.imp); ci++ {
				c := &s.imp[ci]
				if !c.dead {
					out = append(out, Result{ID: c.id, Score: e.rescore(s, q, c.id)})
				}
			}
			return out, listsErr(lists)
		}

		tau = liveTau(bound, shared)
		var f float64
		for i := range lists {
			if p, ok := lists[i].frontier(); ok && p.Len <= hi {
				f += lists[i].w(q.Len, p.Len)
			}
		}
		if sim.Meets(f, tau) {
			continue
		}
		stats.CandidateScans++
		for ci := scanFrom; ci < len(s.imp); ci++ {
			c := &s.imp[ci]
			if c.dead {
				if ci == scanFrom {
					scanFrom++
				}
				continue
			}
			if cc.stop() {
				return nil, cc.err
			}
			e.resolveAbsences(c, lists)
			if c.nResolved == n {
				out = append(out, Result{ID: c.id, Score: e.rescore(s, q, c.id)})
				c.dead = true
				live--
				if ci == scanFrom {
					scanFrom++
				}
				continue
			}
			if !sim.Meets(c.upper(q.Len), tau) {
				c.dead = true
				live--
				if ci == scanFrom {
					scanFrom++
				}
			}
		}
		if live == 0 {
			return out, listsErr(lists)
		}
	}
}
