package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the driver made into a layer.
type span struct {
	Name   string
	Op     int // op id the call belongs to
	Parent int // index of the enclosing span, -1 at the top level
	Start  time.Duration
	End    time.Duration
	// AllocBytes is the process-wide heap allocation over the span, or
	// -1 when other goroutines of the driver may allocate concurrently
	// (the Durable and fallback hooks run on sweep workers).
	AllocBytes int64
}

// tracer records spans in memory while on. Off, begin returns -1 and
// end does nothing, so untraced ops pay only the call.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	op    int

	mu     sync.Mutex
	spans  []span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// heapAllocs reads the process's cumulative heap allocation; callers
// hold t.mu.
func (t *tracer) heapAllocs() int64 {
	metrics.Read(t.sample)
	return int64(t.sample[0].Value.Uint64())
}

// begin opens a span under parent (-1 for the top level) and returns
// its id. sequential says no other driver goroutine runs during the
// call, which makes its heap allocation attributable.
func (t *tracer) begin(name string, parent int, sequential bool) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	alloc := int64(-1)
	if sequential {
		alloc = t.heapAllocs()
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent,
		Start: time.Since(t.epoch), AllocBytes: alloc})
	return len(t.spans) - 1
}

// setOp starts op: the spans begun from now on belong to it, and are
// recorded only if on.
func (t *tracer) setOp(op int, on bool) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
	t.on.Store(on)
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	if s.AllocBytes >= 0 {
		s.AllocBytes = t.heapAllocs() - s.AllocBytes
	}
}

// writeCSV writes every span as one table row.
func (t *tracer) writeCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "op,span,name,parent,start_us,end_us,alloc_bytes"); err != nil {
		return err
	}
	for i, s := range t.spans {
		if _, err := fmt.Fprintf(w, "%d,%d,%s,%d,%.3f,%.3f,%d\n", s.Op, i, s.Name, s.Parent,
			float64(s.Start)/1e3, float64(s.End)/1e3, s.AllocBytes); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover. Children of one span may overlap each
// other (they run on concurrent workers), so the covered part is the
// length of the union of their intervals, clipped to the parent's.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		self[i] = s.End - s.Start - unionLength(ivs)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
