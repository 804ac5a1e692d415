package invlist

import (
	"sort"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// SkipInterval is the default spacing of skip-index entries: one skip
// entry per this many postings. The paper caps skip lists at 10MB per
// inverted list; with 64-posting spacing our skip indexes stay below 1%
// of list volume.
const SkipInterval = 64

// skipBytesPerEntry is the storage cost of one in-memory skip entry: the
// block head's length. Its position is implied by its index.
const skipBytesPerEntry = 8

// MemStore keeps all inverted lists in memory. It is safe for concurrent
// readers once built.
type MemStore struct {
	weight [][]Posting // per token, sorted by (Len, ID)
	byID   [][]Posting // per token, sorted by ID
	// heads is each weight list's skip index, one flat level:
	// heads[t][j] = weight[t][(j+1)·interval].Len. The first head sits
	// one interval in — a skip entry at position 0 can never shorten a
	// seek, and for the many short lists it would dominate the index.
	heads    [][]float64
	interval int
	sizes    Sizes
}

// BuildMem constructs a MemStore over every token of c. skipInterval ≤ 0
// selects SkipInterval.
func BuildMem(c *collection.Collection, skipInterval int) *MemStore {
	if skipInterval <= 0 {
		skipInterval = SkipInterval
	}
	n := c.NumTokens()
	st := &MemStore{
		weight:   make([][]Posting, n),
		byID:     make([][]Posting, n),
		heads:    make([][]float64, n),
		interval: skipInterval,
	}
	c.TokenSets(func(t tokenize.Token, ids []collection.SetID) {
		ps := make([]Posting, len(ids))
		for i, id := range ids {
			ps[i] = Posting{ID: id, Len: c.Length(id)}
		}
		st.byID[t] = ps // TokenSets yields ascending ids

		w := make([]Posting, len(ps))
		copy(w, ps)
		sort.Slice(w, func(i, j int) bool {
			if w[i].Len != w[j].Len {
				return w[i].Len < w[j].Len
			}
			return w[i].ID < w[j].ID
		})
		st.weight[t] = w

		if len(w) > skipInterval {
			heads := make([]float64, 0, (len(w)-1)/skipInterval)
			for i := skipInterval; i < len(w); i += skipInterval {
				heads = append(heads, w[i].Len)
			}
			st.heads[t] = heads
		}
		st.sizes.WeightLists += int64(len(w)) * 16
		st.sizes.IDLists += int64(len(ps)) * 16
		st.sizes.SkipIndexes += int64(len(st.heads[t])) * skipBytesPerEntry
	})
	return st
}

// WeightCursor implements Store.
func (s *MemStore) WeightCursor(t tokenize.Token) Cursor {
	if int(t) >= len(s.weight) || len(s.weight[t]) == 0 {
		return Empty()
	}
	return &memCursor{list: s.weight[t], heads: s.heads[t], interval: s.interval}
}

// IDCursor implements Store.
func (s *MemStore) IDCursor(t tokenize.Token) Cursor {
	if int(t) >= len(s.byID) || len(s.byID[t]) == 0 {
		return Empty()
	}
	return &memCursor{list: s.byID[t]} // interval 0: not length-sorted, no seeks
}

// WeightCursorReuse implements CursorReuser: when prev is a cursor this
// store handed out earlier, it is rewound onto token t's weight list in
// place. Unknown or empty tokens reset prev to an exhausted cursor, so
// the caller's cursor slot stays reusable either way.
func (s *MemStore) WeightCursorReuse(t tokenize.Token, prev Cursor) Cursor {
	mc, ok := prev.(*memCursor)
	if !ok {
		return s.WeightCursor(t)
	}
	if int(t) >= len(s.weight) || len(s.weight[t]) == 0 {
		*mc = memCursor{}
		return mc
	}
	*mc = memCursor{list: s.weight[t], heads: s.heads[t], interval: s.interval}
	return mc
}

// IDCursorReuse implements CursorReuser for the id-sorted lists.
func (s *MemStore) IDCursorReuse(t tokenize.Token, prev Cursor) Cursor {
	mc, ok := prev.(*memCursor)
	if !ok {
		return s.IDCursor(t)
	}
	if int(t) >= len(s.byID) || len(s.byID[t]) == 0 {
		*mc = memCursor{}
		return mc
	}
	*mc = memCursor{list: s.byID[t]}
	return mc
}

// ListLen implements Store.
func (s *MemStore) ListLen(t tokenize.Token) int {
	if int(t) >= len(s.weight) {
		return 0
	}
	return len(s.weight[t])
}

// Sizes implements Store.
func (s *MemStore) Sizes() Sizes { return s.sizes }

// Close implements Store.
func (s *MemStore) Close() error { return nil }

type memCursor struct {
	list     []Posting
	heads    []float64 // the list's skip index (see MemStore.heads)
	interval int       // skip spacing; 0 on id-sorted lists, where SeekLen is a no-op
	pos      int
}

func (c *memCursor) Valid() bool      { return c.pos < len(c.list) }
func (c *memCursor) Posting() Posting { return c.list[c.pos] }
func (c *memCursor) Next()            { c.pos++ }
func (c *memCursor) Count() int       { return len(c.list) }

// SeekLen jumps via the skip index to the first posting with Len ≥ min.
// Entries between the skip landing point and the target are walked (they
// are inside the same skip block), but entries before the landing point
// are skipped without being touched — those are the savings Fig. 9
// measures.
func (c *memCursor) SeekLen(min float64) (skipped, walked int) {
	if c.interval == 0 || !c.Valid() || c.list[c.pos].Len >= min {
		return 0, 0
	}
	start := c.pos
	// heads[j-1] is the last block head with Len < min. The list is
	// length-sorted, so no posting with Len ≥ min precedes its position
	// j·interval: the jump skips only prunable entries.
	if j := sort.SearchFloat64s(c.heads, min); j > 0 && j*c.interval > c.pos {
		c.pos = j * c.interval
	}
	skipped = c.pos - start
	for c.pos < len(c.list) && c.list[c.pos].Len < min {
		c.pos++ // intra-block walk: these are materialized reads
		walked++
	}
	return skipped, walked
}
