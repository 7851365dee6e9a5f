package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End are
// nanoseconds since the log's base time; Parent is 0 for a root span; Req
// groups the spans of one request (a kernel iteration, a trace replay or an
// HTTP round trip).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so the untraced run passes nil and pays one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name string, parent int, req int64) int {
	return l.beginAt(name, parent, req, time.Now())
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := int64(time.Since(l.base))
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// beginAt opens a span that started at a time the caller measured, such as
// a request whose latency counts from its due time rather than its send.
func (l *spanLog) beginAt(name string, parent int, req int64, start time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Req: req, Start: int64(start.Sub(l.base)), End: -1})
	return len(l.spans)
}

// durations returns the durations of every closed span with the given
// name whose parent span is named parent.
func (l *spanLog) durations(name, parent string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name && s.End >= 0 && s.Parent != 0 && l.spans[s.Parent-1].Name == parent {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval that its children's spans cover, children clipped to
// the parent and overlapping children counted once. The result is indexed
// like spans.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.End-s.Start-covered) * time.Nanosecond
	}
	return out
}

// spanFile is the JSON written when a traced run ends.
type spanFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Spans       []span      `json:"spans"`
	SelfNS      []int64     `json:"self_ns"`
}

// write dumps every span with its self time to path.
func (l *spanLog) write(path string, fp fingerprint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	self := selfTimes(l.spans)
	f := spanFile{Fingerprint: fp, Spans: l.spans, SelfNS: make([]int64, len(self))}
	for i, d := range self {
		f.SelfNS[i] = int64(d)
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
