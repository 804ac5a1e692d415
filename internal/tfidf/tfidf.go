// Package tfidf extends the selection machinery to full TF/IDF cosine
// similarity. §IV of the paper notes that TF/IDF (and BM25) obey
// *looser* versions of the IDF semantic properties "by associating with
// every token a maximum tf component and boosting all bounds
// accordingly"; this package works those bounds out and implements a
// Shortest-First-style algorithm over tf-carrying inverted lists.
//
// Definitions. weight(t, s) = tf(t, s)·idf(t); len(s) = sqrt(Σ weight²);
// I(q, s) = Σ_{t∈q∩s} tf(t,q)·tf(t,s)·idf(t)² / (len(q)·len(s)).
//
// Boosted properties (M_t = the corpus-wide maximum tf of token t,
// MQ = the maximum query tf):
//
//   - Length Boundedness: I(q,s) ≥ τ implies
//     τ·len(q)/MQ ≤ len(s) ≤ B(q)/τ, where B(q) = sqrt(Σ_{t∈q} (M_t·idf)²).
//     Lower: Σ tf_q·tf_s·idf² ≤ MQ·Σ tf_s·idf² ≤ MQ·Σ (tf_s·idf)² ≤ MQ·len(s)²
//     (tf_s ≥ 1 gives tf_s·idf² ≤ (tf_s·idf)²), so τ·len(q)·len(s) ≤ MQ·len(s)².
//     Upper: Cauchy–Schwarz gives Σ tf_q·tf_s·idf² ≤ len(q)·sqrt(Σ_{q∩s}(tf_s·idf)²)
//     and the inner sum is at most Σ_{t∈q}(M_t·idf)² = B(q)².
//   - Order Preservation: unchanged — lists are sorted by len(s), which
//     is constant across lists.
//   - Magnitude Boundedness: once len(s) is known, the best case is
//     Σ_{t∈q} tf_q(t)·M_t·idf(t)² / (len(q)·len(s)).
//
// The λ cutoffs of Eq. 2 boost the same way:
// λ_i = Σ_{j≥i} tf_q(j)·M_j·idf_j² / (τ·len(q)).
package tfidf

import (
	"math"
	"sort"

	"repro/internal/collection"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// Posting is one tf-carrying inverted-list entry.
type Posting struct {
	ID  collection.SetID
	Len float64 // TF/IDF-normalized length of the set
	TF  uint32  // term frequency of the list's token in the set
}

// Result is one qualifying set with its exact TF/IDF score.
type Result struct {
	ID    collection.SetID
	Score float64
}

// Index holds tf-carrying weight-sorted lists plus the per-token maximum
// tf needed for the boosted bounds.
type Index struct {
	c     *collection.Collection
	lists [][]Posting // per token, sorted by (Len, ID)
	maxTF []uint32    // per token corpus maximum tf
	lens  []float64   // per set TF/IDF length
}

// Build constructs the TF/IDF index for c.
func Build(c *collection.Collection) *Index {
	idx := &Index{
		c:     c,
		lists: make([][]Posting, c.NumTokens()),
		maxTF: make([]uint32, c.NumTokens()),
		lens:  make([]float64, c.NumSets()),
	}
	for id := 0; id < c.NumSets(); id++ {
		var sum float64
		for _, cnt := range c.Set(collection.SetID(id)) {
			w := float64(cnt.TF) * c.IDFWeight(cnt.Token)
			sum += w * w
			if cnt.TF > idx.maxTF[cnt.Token] {
				idx.maxTF[cnt.Token] = cnt.TF
			}
		}
		idx.lens[id] = math.Sqrt(sum)
	}
	c.TokenSets(func(t tokenize.Token, ids []collection.SetID) {
		ps := make([]Posting, len(ids))
		for i, id := range ids {
			tf := uint32(1)
			for _, cnt := range c.Set(id) {
				if cnt.Token == t {
					tf = cnt.TF
					break
				}
			}
			ps[i] = Posting{ID: id, Len: idx.lens[id], TF: tf}
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].Len != ps[j].Len {
				return ps[i].Len < ps[j].Len
			}
			return ps[i].ID < ps[j].ID
		})
		idx.lists[t] = ps
	})
	return idx
}

// Stats reports the work one query performed.
type Stats struct {
	ElementsRead int
	ListTotal    int
}

// queryToken is one preprocessed query token in decreasing-idf order.
type queryToken struct {
	token tokenize.Token
	tf    float64 // query-side tf
	idfSq float64
	boost float64 // tf_q·M_t·idf² — the maximum contribution numerator
}

// prepare computes the query vector, its TF/IDF length, max query tf and
// the boosted mass B(q)².
func (x *Index) prepare(counts []tokenize.Count) (toks []queryToken, lenQ, maxQTF, boostSq float64) {
	n := x.c.NumSets()
	var len2 float64
	for _, cnt := range counts {
		w := sim.IDF(x.c.DF(cnt.Token), n)
		tfq := float64(cnt.TF)
		len2 += tfq * tfq * w * w
		if tfq > maxQTF {
			maxQTF = tfq
		}
		mt := float64(1)
		if int(cnt.Token) < len(x.maxTF) && x.maxTF[cnt.Token] > 0 {
			mt = float64(x.maxTF[cnt.Token])
		}
		boostSq += mt * mt * w * w
		toks = append(toks, queryToken{token: cnt.Token, tf: tfq, idfSq: w * w, boost: tfq * mt * w * w})
	}
	sort.SliceStable(toks, func(i, j int) bool {
		if toks[i].idfSq != toks[j].idfSq {
			return toks[i].idfSq > toks[j].idfSq
		}
		return toks[i].token < toks[j].token
	})
	return toks, math.Sqrt(len2), maxQTF, boostSq
}

// SelectNaive scores every set directly — the oracle.
func (x *Index) SelectNaive(counts []tokenize.Count, tau float64) []Result {
	toks, lenQ, _, _ := x.prepare(counts)
	if lenQ <= 0 {
		return nil
	}
	weights := make(map[tokenize.Token]float64, len(toks))
	for _, qt := range toks {
		weights[qt.token] = qt.tf * qt.idfSq
	}
	var out []Result
	for id := 0; id < x.c.NumSets(); id++ {
		sid := collection.SetID(id)
		var dot float64
		for _, cnt := range x.c.Set(sid) {
			if w, ok := weights[cnt.Token]; ok {
				dot += w * float64(cnt.TF)
			}
		}
		if dot <= 0 {
			continue
		}
		score := dot / (lenQ * x.lens[id])
		if sim.Meets(score, tau) {
			out = append(out, Result{ID: sid, Score: score})
		}
	}
	return out
}

type cand struct {
	id    collection.SetID
	len   float64
	lower float64
	dead  bool
}

// SelectSF answers a TF/IDF selection with the Shortest-First strategy
// under the boosted bounds: the scan window is [τ·len(q)/MQ, B(q)/τ],
// new-candidate cutoffs use the boosted suffix mass, and exact tf values
// from the postings refine candidate scores as lists are consumed.
func (x *Index) SelectSF(counts []tokenize.Count, tau float64) ([]Result, Stats) {
	var stats Stats
	toks, lenQ, maxQTF, boostSq := x.prepare(counts)
	if lenQ <= 0 || tau <= 0 {
		return nil, stats
	}
	for _, qt := range toks {
		stats.ListTotal += len(x.lists[qt.token])
	}
	tauP := tau - sim.ScoreEpsilon
	if tauP <= 0 {
		tauP = tau / 2
	}
	lo := tauP * lenQ / maxQTF
	hi := math.Sqrt(boostSq) / tauP
	hi += hi * 1e-12
	lo -= lo * 1e-12

	n := len(toks)
	// suffix[i] = Σ_{j≥i} boost_j: the boosted λ numerators.
	suffix := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + toks[i].boost
	}

	var c []*cand // (len, id) order: an old candidate is met at c[mergePtr]

	for i, qt := range toks {
		if int(qt.token) >= len(x.lists) {
			continue
		}
		list := x.lists[qt.token]
		// Boosted Theorem 1: skip straight to the window start.
		pos := sort.Search(len(list), func(k int) bool { return list[k].Len >= lo })

		lambda := suffix[i] / (tauP * lenQ)
		mu := math.Min(lambda, hi)

		var news []*cand
		mergePtr := 0
		lastViable := len(c) - 1
		for lastViable >= 0 && c[lastViable].dead {
			lastViable--
		}
		for ; pos < len(list); pos++ {
			p := list[pos]
			for mergePtr < len(c) && (c[mergePtr].len < p.Len || (c[mergePtr].len == p.Len && c[mergePtr].id < p.ID)) {
				cc := c[mergePtr]
				mergePtr++
				if cc.dead {
					continue
				}
				if !sim.Meets(cc.lower+suffix[i+1]/(lenQ*cc.len), tau) {
					cc.dead = true
					for lastViable >= 0 && c[lastViable].dead {
						lastViable--
					}
				}
			}
			stop := mu
			if lastViable >= 0 && c[lastViable].len > stop {
				stop = c[lastViable].len
			}
			if p.Len > stop {
				break
			}
			stats.ElementsRead++
			w := qt.tf * float64(p.TF) * qt.idfSq / (lenQ * p.Len)
			if mergePtr < len(c) && c[mergePtr].id == p.ID {
				c[mergePtr].lower += w
				continue
			}
			if sim.Meets(suffix[i]/(lenQ*p.Len), tau) {
				news = append(news, &cand{id: p.ID, len: p.Len, lower: w})
			}
		}

		merged := make([]*cand, 0, len(c)+len(news))
		oi, ni := 0, 0
		less := func(a, b *cand) bool {
			if a.len != b.len {
				return a.len < b.len
			}
			return a.id < b.id
		}
		for oi < len(c) || ni < len(news) {
			var take *cand
			if oi < len(c) && (ni >= len(news) || less(c[oi], news[ni])) {
				take = c[oi]
				oi++
				if take.dead || !sim.Meets(take.lower+suffix[i+1]/(lenQ*take.len), tau) {
					continue
				}
			} else {
				take = news[ni]
				ni++
			}
			merged = append(merged, take)
		}
		c = merged
	}

	var out []Result
	for _, cc := range c {
		if !cc.dead && sim.Meets(cc.lower, tau) {
			out = append(out, Result{ID: cc.id, Score: cc.lower})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, stats
}

// BoostedBounds exposes the boosted Theorem 1 window for tests and
// diagnostics.
func (x *Index) BoostedBounds(counts []tokenize.Count, tau float64) (lo, hi float64) {
	_, lenQ, maxQTF, boostSq := x.prepare(counts)
	if lenQ <= 0 || maxQTF <= 0 {
		return 0, 0
	}
	return tau * lenQ / maxQTF, math.Sqrt(boostSq) / tau
}

// Length returns the TF/IDF-normalized length of set id.
func (x *Index) Length(id collection.SetID) float64 { return x.lens[id] }
