package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names: one per public call the benchmark makes, plus one root
// span per benchmark operation. The prefix is the module the call
// enters (setsim for the storage calls implemented there); a root
// span's self time is the benchmark's own overhead.
const (
	spanOp         = "op"
	spanBuild      = "core.build"
	spanOpen       = "setsim.open_durable"
	spanPrepare    = "tokenize.prepare"
	spanSelect     = "core.select"
	spanTopK       = "core.topk"
	spanBatch      = "core.batch"
	spanInsert     = "live.insert"
	spanDelete     = "live.delete"
	spanUpsert     = "live.upsert"
	spanCompact    = "live.compact"
	spanCheckpoint = "live.checkpoint"
	spanClose      = "live.close"
	spanVerify     = "setsim.verify"
	spanSave       = "setsim.save_live"
)

// spanNoParent marks a root span.
const spanNoParent = -1

// span is one timed call. Times are nanoseconds since the tracer's
// epoch; parent is an index into the same tracer's spans (or
// spanNoParent) and op the index of the root span of the operation the
// call belongs to.
type span struct {
	name       string
	start, end int64
	parent, op int32
}

// tracer records spans in memory for one goroutine. A nil *tracer is
// the untraced mode: every method is a no-op, so call sites need no
// branches.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<12)}
}

// begin opens a span under parent (spanNoParent for a root) and returns
// its index.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return spanNoParent
	}
	i := int32(len(t.spans))
	op := i
	if parent != spanNoParent {
		op = t.spans[parent].op
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, op: op})
	return i
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// timed runs f inside a root span and returns its wall time in
// seconds; the set-up and end-of-run calls of every workload go through
// it.
func (t *tracer) timed(name string, f func()) float64 {
	s := t.begin(name, spanNoParent)
	start := time.Now()
	f()
	d := time.Since(start).Seconds()
	t.end(s)
	return d
}

// selfTimes returns, per span name, the self time of every span in
// nanoseconds: its duration minus the part of its interval covered by
// its children (overlapping children counted once, clipped to the
// parent).
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent != spanNoParent {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		self := s.end - s.start - covered(spans, s, children[int32(i)])
		out[s.name] = append(out[s.name], float64(self))
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(spans []span, parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].start, spans[k].end
		if lo < parent.start {
			lo = parent.start
		}
		if hi > parent.end {
			hi = parent.end
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for j, v := range iv {
		switch {
		case j == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes every tracer's spans as tab-separated lines:
// tracer, index, name, start_ns, end_ns, parent, op.
func writeSpans(path string, header string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# tracer\tspan\tname\tstart_ns\tend_ns\tparent\top\n", header)
	for ti, t := range tracers {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", ti, i, s.name, s.start, s.end, s.parent, s.op)
		}
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
