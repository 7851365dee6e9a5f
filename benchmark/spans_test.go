package main

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"stint"
	"stint/workloads"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100): 50 of the parent's 100 ns.
	want := []time.Duration{50, 20, 30, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		var spans []span
		for i := 0; i < 30; i++ {
			start := rng.Int64N(1000)
			s := span{ID: i + 1, Start: start, End: start + rng.Int64N(300)}
			if i > 0 {
				s.Parent = 1 + rng.IntN(i)
			}
			spans = append(spans, s)
		}
		for i, d := range selfTimes(spans) {
			if d < 0 || d > spans[i].dur() {
				t.Fatalf("trial %d span %d: self %d outside [0, %d]", trial, i, d, spans[i].dur())
			}
		}
	}
}

// TestTracedIterationSpans records a real iteration and checks the span
// tree: every child lies inside its parent and no self time is negative.
func TestTracedIterationSpans(t *testing.T) {
	k := &kernel{factory: func() workloads.Workload { return workloads.NewSort(4096, 64) }}
	r, want, err := k.setup(stint.Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	log := newSpanLog()
	for req := int64(1); req <= 3; req++ {
		rep, _, err := k.iterate(r, log, "run.traced", req)
		if err := checkKernelRun(rep, err, want); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(log.spans); n != 3*5 {
		t.Fatalf("%d spans, want 15 (iteration, reset, setup, run, verify per iteration)", n)
	}
	for i, d := range selfTimes(log.spans) {
		s := log.spans[i]
		if d < 0 {
			t.Errorf("span %s: negative self time %d", s.Name, d)
		}
		if s.Parent != 0 {
			p := log.spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End || s.Req != p.Req {
				t.Errorf("span %s [%d,%d] req %d not inside parent %s [%d,%d] req %d", s.Name, s.Start, s.End, s.Req, p.Name, p.Start, p.End, p.Req)
			}
		}
	}
	if got := len(log.durations("runner.reset", "run.traced")); got != 3 {
		t.Errorf("%d reset spans under run.traced, want 3", got)
	}
}

// TestLadderLayersSumToStintRung checks that the four layer times add up
// to the stint rung's median wall, whatever the samples.
func TestLadderLayersSumToStintRung(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 100; trial++ {
		l := &ladderSamples{wall: make(map[string][]float64)}
		for i := 0; i < 1+rng.IntN(9); i++ {
			off := 10 + rng.Float64()*5
			reach := off + rng.Float64()*2 - 0.5
			hist := rng.Float64() * 100
			l.wall["rung.off"] = append(l.wall["rung.off"], off)
			l.wall["rung.reach"] = append(l.wall["rung.reach"], reach)
			l.wall["rung.stint"] = append(l.wall["rung.stint"], reach+hist+rng.Float64()*300)
			l.history = append(l.history, hist)
		}
		program, reach, hc, hist := l.layers()
		total := median(l.wall["rung.stint"])
		if got := program + reach + hc + hist; math.Abs(got-total) > 1e-9*total {
			t.Fatalf("layers sum to %v, stint rung median is %v", got, total)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{5, 50}, {20, 50}, {40, 75}, {100, 90}, {1000, 99}, {50000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestNilSpanLogRecordsNothing(t *testing.T) {
	var log *spanLog
	id := log.begin("x", 0, 1)
	log.end(id)
	if id != 0 {
		t.Fatalf("nil log returned span id %d", id)
	}
}
