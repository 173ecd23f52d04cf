package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// epoch is the zero of every span timestamp; spans store nanoseconds since
// it so a span costs no time.Time (and no monotonic-clock word) to keep.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// Span names. The tx.* spans are recorded around the engine's public API
// from the benchmark's side of each call: tx.queue runs from ExecAsync/Exec
// submission until the transaction body starts on an agent, tx.body until
// the body returns, tx.commit until the caller holds the outcome (for an
// update, the durable ack).
const (
	spanTx       = "tx"
	spanQueue    = "tx.queue"
	spanBody     = "tx.body"
	spanCommit   = "tx.commit"
	phaseKey     = -1 // key of every phase span (setup, run, recovery, check)
	clientKeyBit = 48 // a transaction span's key is client<<clientKeyBit | sequence
)

// span is one timed interval. key identifies the instance a span belongs
// to (one transaction, or the run's phases); parent names the enclosing
// span within the same key, "" for a root.
type span struct {
	name, parent string
	key          int64
	tid          int32
	start, end   int64
}

// spanBuf is a client's preallocated span buffer. It records every
// stride-th transaction; when it fills up it drops every other recorded
// transaction and doubles the stride, so a run of any length fits in the
// same memory and stays evenly sampled.
type spanBuf struct {
	spans  []span
	stride int64
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{spans: make([]span, 0, capacity), stride: 1}
}

// wants reports whether the transaction with sequence number seq is sampled.
func (b *spanBuf) wants(seq int64) bool { return seq%b.stride == 0 }

// addTx records the four spans of one sampled transaction. Timestamps are
// nanoseconds since epoch; bodyStart is zero when the body never ran (the
// engine closed before an agent picked the transaction up).
func (b *spanBuf) addTx(key int64, tid int32, submit, bodyStart, bodyEnd, done int64) {
	if bodyStart == 0 {
		return
	}
	if len(b.spans)+4 > cap(b.spans) {
		b.thin()
		if !b.wants(key & (1<<clientKeyBit - 1)) {
			return
		}
	}
	b.spans = append(b.spans,
		span{name: spanTx, key: key, tid: tid, start: submit, end: done},
		span{name: spanQueue, parent: spanTx, key: key, tid: tid, start: submit, end: bodyStart},
		span{name: spanBody, parent: spanTx, key: key, tid: tid, start: bodyStart, end: bodyEnd},
		span{name: spanCommit, parent: spanTx, key: key, tid: tid, start: bodyEnd, end: done},
	)
}

// thin doubles the sampling stride and compacts the buffer to the
// transactions the new stride still samples.
func (b *spanBuf) thin() {
	b.stride *= 2
	kept := b.spans[:0]
	for _, s := range b.spans {
		if s.key < 0 || b.wants(s.key&(1<<clientKeyBit-1)) {
			kept = append(kept, s)
		}
	}
	b.spans = kept
}

// sampledTx counts the transactions the buffer holds.
func (b *spanBuf) sampledTx() int {
	n := 0
	for _, s := range b.spans {
		if s.name == spanTx {
			n++
		}
	}
	return n
}

// selfStat is one row of the self-time table: a span name's occurrence
// count, total duration, and self time — duration minus the part of its
// interval that child spans cover.
type selfStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's children are the spans with
// the same key whose parent is its name; their union, clipped to the
// span's own interval, is subtracted from its duration. Rows are ordered by
// self time, largest first.
func selfTimes(spans []span) []selfStat {
	byKey := map[int64][]int{}
	for i, s := range spans {
		byKey[s.key] = append(byKey[s.key], i)
	}
	agg := map[string]*selfStat{}
	var order []string
	for _, idx := range byKey {
		for _, i := range idx {
			s := spans[i]
			var kids [][2]int64
			for _, j := range idx {
				c := spans[j]
				if j == i || c.parent != s.name {
					continue
				}
				lo, hi := max(c.start, s.start), min(c.end, s.end)
				if lo < hi {
					kids = append(kids, [2]int64{lo, hi})
				}
			}
			st, ok := agg[s.name]
			if !ok {
				st = &selfStat{Name: s.name}
				agg[s.name] = st
				order = append(order, s.name)
			}
			dur := s.end - s.start
			st.Count++
			st.TotalMS += float64(dur) / 1e6
			st.SelfMS += float64(dur-covered(kids)) / 1e6
		}
	}
	out := make([]selfStat, 0, len(order))
	for _, n := range order {
		out = append(out, *agg[n])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, r := range iv {
		switch {
		case !open:
			curLo, curHi, open = r[0], r[1], true
		case r[0] <= curHi:
			curHi = max(curHi, r[1])
		default:
			total += curHi - curLo
			curLo, curHi = r[0], r[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanHist returns the durations of the spans with the given name.
func spanHist(spans []span, name string) *hist {
	h := new(hist)
	for _, s := range spans {
		if s.name == name {
			h.add(time.Duration(s.end - s.start))
		}
	}
	return h
}

// traceEvent is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing open a file of them directly.
type traceEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	PID  int              `json:"pid"`
	TID  int32            `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON: phase spans in
// process 0, transaction spans in process 1 with one thread per client slot
// so each thread's spans nest.
func writeChromeTrace(w io.Writer, spans []span) error {
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		ev := traceEvent{Name: s.name, Cat: "phase", Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, TID: s.tid}
		if s.key != phaseKey {
			ev.Cat, ev.PID = "tx", 1
			ev.Args = map[string]int64{"client": s.key >> clientKeyBit, "seq": s.key & (1<<clientKeyBit - 1)}
		}
		events = append(events, ev)
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		return err
	}
	return bw.Flush()
}
