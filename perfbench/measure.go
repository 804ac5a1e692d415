package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// opKind classifies a benchmark operation for latency accounting.
type opKind int

const (
	kSelect opKind = iota
	kTopK
	kBatch
	kWrite
	nKinds
)

// Measurement modes of the timed loop. An untraced run measures in
// modeUntraced only; a traced run alternates windows of the two, so the
// difference between them is the tracing overhead under the same load.
const (
	modeUntraced = 0
	modeTraced   = 1
	nModes       = 2
	traceWindow  = 250 * time.Millisecond
)

// An untraced timed loop is cut into rounds of roundLen. On a virtual
// machine the hypervisor can stop the benchmark's CPUs to run other
// guests (steal time); the monitor measures each round's steal, and the
// end-to-end metrics pool the keptShare of rounds with the least of it,
// so outside interference does not move the result. Steal arrives in
// small bursts, so short rounds leave many rounds untouched. A traced
// run is one round: its per-layer metrics pool every traced window.
const (
	roundLen  = traceWindow
	keptShare = 0.3
)

// bucket holds the samples of one round in one mode.
type bucket struct {
	lat       [nKinds][]float64 // latency samples, µs
	attempted int64
	failed    int64
}

// completed is the number of operations of the bucket that succeeded.
func (b *bucket) completed() int64 { return b.attempted - b.failed }

func (b *bucket) merge(o *bucket) {
	for k := range b.lat {
		b.lat[k] = append(b.lat[k], o.lat[k]...)
	}
	b.attempted += o.attempted
	b.failed += o.failed
}

// client is one closed-loop load generator: it sends its next operation
// only after the previous one returned. Everything it records is its
// own, so clients never share mutable state.
type client struct {
	id     int
	cur    *bucket // the bucket of the running operation
	tr     *tracer // the active tracer: nil in untraced windows
	traced *tracer // this client's spans across every traced window

	buckets [][nModes]bucket
}

func newClient(id int, cfg config) *client {
	c := &client{id: id}
	if cfg.trace {
		c.traced = newTracer(cfg.epoch)
	}
	return c
}

// record adds one completed operation's latency.
func (c *client) record(k opKind, start time.Time) {
	c.cur.lat[k] = append(c.cur.lat[k], float64(time.Since(start).Nanoseconds())/1e3)
}

// loopResult is what one timed loop measured.
type loopResult struct {
	nRounds    int
	roundTime  []time.Duration       // untraced rounds
	roundSteal []float64             // share of CPU time stolen per round
	modeTime   [nModes]time.Duration // traced run
	buckets    [][nModes]bucket
	// runtime counters of the untraced windows
	allocBytes, gcCycles uint64
	tracers              []*tracer
}

// pooled merges every round of mode m.
func (r *loopResult) pooled(m int) *bucket {
	var b bucket
	for i := 0; i < r.nRounds; i++ {
		b.merge(&r.buckets[i][m])
	}
	return &b
}

// kept returns the untraced rounds with the least steal time, in round
// order. Ties, common on a quiet machine, go to rounds spread over the
// loop by a fixed scrambled order rather than to the first ones.
func (r *loopResult) kept() []int {
	idx := make([]int, r.nRounds)
	for i := range idx {
		idx[i] = i
	}
	scramble := func(i int) int { return (i * 40503) & 0xffff }
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := r.roundSteal[idx[a]], r.roundSteal[idx[b]]
		if sa != sb {
			return sa < sb
		}
		return scramble(idx[a]) < scramble(idx[b])
	})
	n := int(math.Ceil(keptShare * float64(r.nRounds)))
	idx = idx[:n]
	sort.Ints(idx)
	return idx
}

// runLoop drives every client in a closed loop for d. step runs one
// operation; an error counts the operation as failed. Untraced, the
// loop is split into rounds; with trace set it is one round in which
// windows of traceWindow alternate untraced and traced measurement.
func runLoop(clients []*client, d time.Duration, trace bool, step func(c *client, i int) error) *loopResult {
	res := &loopResult{nRounds: 1}
	if !trace && d >= 2*roundLen {
		res.nRounds = int(d / roundLen)
	}
	res.roundTime = make([]time.Duration, res.nRounds)
	res.roundSteal = make([]float64, res.nRounds)
	res.buckets = make([][nModes]bucket, res.nRounds)
	for _, c := range clients {
		c.buckets = make([][nModes]bucket, res.nRounds)
	}
	epoch := time.Now()
	deadline := epoch.Add(d)
	place := func(t time.Time) (round, mode int) {
		e := t.Sub(epoch)
		if trace {
			return 0, int(e/traceWindow) % nModes
		}
		round = int(e / roundLen)
		if round >= res.nRounds {
			round = res.nRounds - 1
		}
		return round, modeUntraced
	}

	// The monitor reads runtime counters at window boundaries and
	// attributes each window's allocation and GC work to its mode, and
	// each window's CPU and steal time to its round.
	var alloc, gcs [nModes]uint64
	cpuTotal := make([]uint64, res.nRounds)
	cpuSteal := make([]uint64, res.nRounds)
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		var prev, cur runtime.MemStats
		runtime.ReadMemStats(&prev)
		prevCPU := readCPU()
		for w := 0; ; w++ {
			end := epoch.Add(time.Duration(w+1) * traceWindow)
			if end.After(deadline) {
				end = deadline
			}
			time.Sleep(time.Until(end))
			runtime.ReadMemStats(&cur)
			m := modeUntraced
			if trace {
				m = w % nModes
			}
			alloc[m] += cur.TotalAlloc - prev.TotalAlloc
			gcs[m] += uint64(cur.NumGC - prev.NumGC)
			prev = cur
			cpu := readCPU()
			round, _ := place(end.Add(-time.Nanosecond))
			cpuTotal[round] += cpu.total - prevCPU.total
			cpuSteal[round] += cpu.steal - prevCPU.steal
			prevCPU = cpu
			if !end.Before(deadline) {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; ; i++ {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				round, mode := place(now)
				c.cur = &c.buckets[round][mode]
				c.tr = nil
				if mode == modeTraced {
					c.tr = c.traced
				}
				c.cur.attempted++
				if err := step(c, i); err != nil {
					c.cur.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(epoch)
	<-monDone

	if trace {
		for m := 0; m < nModes; m++ {
			res.modeTime[m] = modeDuration(elapsed, m)
		}
	} else {
		for i := 0; i < res.nRounds; i++ {
			res.roundTime[i] = roundLen
			if cpuTotal[i] > 0 {
				res.roundSteal[i] = float64(cpuSteal[i]) / float64(cpuTotal[i])
			}
		}
		// The last round also holds the remainder and the operations that
		// overran the deadline.
		res.roundTime[res.nRounds-1] = elapsed - time.Duration(res.nRounds-1)*roundLen
	}
	res.allocBytes, res.gcCycles = alloc[modeUntraced], gcs[modeUntraced]
	for _, c := range clients {
		for i := range c.buckets {
			for m := range c.buckets[i] {
				res.buckets[i][m].merge(&c.buckets[i][m])
			}
		}
		res.tracers = append(res.tracers, c.traced)
	}
	return res
}

// modeDuration is how much of a traced loop of length total ran in mode
// m, windows of traceWindow alternating from untraced.
func modeDuration(total time.Duration, m int) time.Duration {
	full := total / traceWindow
	rest := total - full*traceWindow
	d := (full / nModes) * traceWindow
	if full%nModes > time.Duration(m) {
		d += traceWindow
	}
	if int(full%nModes) == m {
		d += rest
	}
	return d
}

// quantile is the nearest-rank q-quantile of xs (0 < q ≤ 1); xs is
// sorted in place. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	r := int(math.Ceil(q*float64(len(xs)))) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(xs) {
		r = len(xs) - 1
	}
	return xs[r]
}

// median of a small slice of repeated measurements (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ioCounters are the process's cumulative I/O counters from
// /proc/self/io: bytes passed to write-like calls and their count.
type ioCounters struct {
	wchar, syscw uint64
	ok           bool
}

func readIO() ioCounters {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return ioCounters{}
	}
	defer f.Close()
	var c ioCounters
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, found := strings.Cut(sc.Text(), ":")
		if !found {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "wchar":
			c.wchar = n
		case "syscw":
			c.syscw = n
		}
	}
	c.ok = sc.Err() == nil
	return c
}

// cpuCounters are the machine's cumulative CPU time and the part of it
// the hypervisor stole, in clock ticks, from /proc/stat.
type cpuCounters struct{ total, steal uint64 }

// readCPU reads the aggregate cpu line of /proc/stat; zero counters
// where it is unavailable make every round look alike.
func readCPU() cpuCounters {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuCounters{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuCounters{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuCounters{}
	}
	var c cpuCounters
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuCounters{}
		}
		c.total += n
		if i == 7 {
			c.steal = n
		}
	}
	return c
}

// heapInuseMiB collects garbage and returns the in-use heap in MiB.
func heapInuseMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
