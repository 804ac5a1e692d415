package core

import (
	"repro/internal/collection"
	"repro/internal/invlist"
	"repro/internal/sim"
)

// sfCand is a Shortest-First candidate. Because SF consumes lists one at
// a time in decreasing idf order, every candidate has the same set of
// unresolved lists — the unprocessed suffix — so its upper bound is the
// uniform lower + suffixIdfSq/(len(q)·len) and no per-list bit vector is
// needed. That uniformity is what makes SF's bookkeeping so cheap (§VI).
// Candidates live in the scratch slab; the paper's candidate list C and
// its per-list new arrivals are slices of slab indexes.
//
// No id index is needed either: lists and C share the (len, id) order
// (Order Preservation), so a posting that belongs to an old candidate is
// exactly the first entry of C the scan has not yet passed.
type sfCand struct {
	id    collection.SetID
	len   float64
	lower float64
	dead  bool
}

// selectSF is Algorithm 3. Lists are processed in decreasing idf order
// (Prepare already sorts the query tokens that way). For list i the
// cutoff λᵢ = Σ_{j≥i} idf² / (τ·len(q)) (Eq. 2) bounds the length of any
// *new* viable candidate, and the scan extends past min(λᵢ, len(q)/τ)
// only as far as the longest still-viable candidate, whose score must be
// completed. Candidates live in a single (len, id)-sorted index slice
// that is merged with each list's new arrivals — one cheap sweep per
// list.
func (e *Engine) selectSF(s *queryScratch, cc *canceller, q Query, tau float64, o *Options, stats *Stats) ([]Result, error) {
	lo, hi := lengthWindow(q, tau, o)
	lists := e.openLists(s, cc, q, lo, o, stats)
	n := len(lists)

	// suffix[i] = Σ_{j ≥ i} idf²; suffix[n] = 0.
	suffix := resliceFloats(s.f0, n+1)
	s.f0 = suffix
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + q.Tokens[i].IDFSq
	}
	tauP := tau - sim.ScoreEpsilon
	lambda := resliceFloats(s.f1, n)
	s.f1 = lambda
	for i := range lambda {
		lambda[i] = suffix[i] / (tauP * q.Len)
	}

	s.sf = s.sf[:0]
	c := s.i0[:0] // sorted by (len, id); the paper's candidate list C

	for i := range lists {
		l := &lists[i]
		if len(c) == 0 && lambda[i] < lo {
			// No candidates to complete and the admission window
			// [lo, λᵢ] is empty for this and — λ being non-increasing —
			// every remaining list.
			break
		}
		mu := lambda[i]
		if hi < mu {
			mu = hi
		}

		news := s.i1[:0]
		mergePtr := 0            // first old candidate not yet passed
		lastViable := len(c) - 1 // last alive old candidate
		for lastViable >= 0 && s.sf[c[lastViable]].dead {
			lastViable--
		}

		for !l.done && l.valid() {
			if cc.stop() {
				s.i0, s.i1 = c, news
				return nil, cc.err
			}
			p := l.posting()

			// Resolve old candidates the scan has passed: unseen ones
			// are absent from this list (Order Preservation), and any
			// candidate's continued viability is lower + remaining
			// suffix mass.
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

			// Stop rule: nothing new past µᵢ can qualify, and nothing
			// old past maxLen(C) needs completing.
			bound := mu
			if lastViable >= 0 && s.sf[c[lastViable]].len > bound {
				bound = s.sf[c[lastViable]].len
			}
			if p.Len > bound {
				break
			}

			stats.ElementsRead++
			l.next()

			// Old candidate: it sits at the merge position, alive (the
			// sweep drops dead ones; kills here only hit passed ones).
			// The next posting passes it and tests its viability.
			if mergePtr < len(c) && s.sf[c[mergePtr]].id == p.ID {
				s.sf[c[mergePtr]].lower += l.w(q.Len, p.Len)
				continue
			}
			// New candidate: best case is appearing in every remaining
			// list, Σ_{j≥i} idf²/(len(q)·len) — the λᵢ test of line 9.
			// A candidate killed at an earlier list j fails it too:
			// suffix[i] ≤ suffix[j+1], so it is never re-admitted.
			if sim.Meets(suffix[i]/(q.Len*p.Len), tau) {
				s.sf = append(s.sf, sfCand{id: p.ID, len: p.Len, lower: l.w(q.Len, p.Len)})
				news = append(news, int32(len(s.sf)-1))
				stats.CandidatesInserted++
			}
		}

		// End-of-list sweep (the paper's single candidate scan per
		// list): resolve candidates the scan never reached, decide
		// viability with the remaining suffix, and merge in the new
		// arrivals.
		stats.CandidateScans++
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
		// Rotate the index buffers: merged becomes C; the old C's
		// backing array is reused for the next merge target.
		old := c
		c = merged
		s.i1 = news
		s.i2 = old[:0]
	}

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

// sfBefore reports whether candidate cand precedes posting position p in
// weight-list order (strictly).
func sfBefore(cand *sfCand, p invlist.Posting) bool {
	if cand.len != p.Len {
		return cand.len < p.Len
	}
	return cand.id < p.ID
}

func sfCandBefore(a, b *sfCand) bool {
	if a.len != b.len {
		return a.len < b.len
	}
	return a.id < b.id
}
