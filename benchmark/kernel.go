package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"stint"
	"stint/trace"
	"stint/workloads"
)

// kernelSpec names a workloads.ByName entry.
type kernelSpec struct {
	name  string
	scale int
}

var kernelWorkloads = map[string]kernelSpec{
	// cilksort: 20.6 M per-word hook calls fold into 23 k intervals, so
	// the hooks and runtime coalescing dominate and the treap is bypassed.
	"sort-hooks": {"sort", 1},
	// fft: 1.56 M hook calls yield 660 k small read intervals beside large
	// writes and 1.3 M treap operations, so the access history dominates.
	"fft-history": {"fft", 4},
}

// setupReps is how many times a run repeats set-up; setup_s is the median.
const setupReps = 3

// counters are the Report fields that must repeat exactly on every
// iteration of a deterministic kernel.
type counters struct {
	ReadAccesses, WriteAccesses           uint64
	ReadHookCalls, WriteHookCalls         uint64
	ReadIntervals, WriteIntervals         uint64
	ReadIntervalBytes, WriteIntervalBytes uint64
	TreapOps, TreapNodesVisited           uint64
	TreapOverlaps, HistoryBytesPeak       uint64
	Strands                               int
}

func countersOf(rep *stint.Report) counters {
	s := &rep.Stats
	return counters{
		ReadAccesses: s.ReadAccesses, WriteAccesses: s.WriteAccesses,
		ReadHookCalls: s.ReadHookCalls, WriteHookCalls: s.WriteHookCalls,
		ReadIntervals: s.ReadIntervals, WriteIntervals: s.WriteIntervals,
		ReadIntervalBytes: s.ReadIntervalBytes, WriteIntervalBytes: s.WriteIntervalBytes,
		TreapOps: s.TreapOps, TreapNodesVisited: s.TreapNodesVisited,
		TreapOverlaps: s.TreapOverlaps, HistoryBytesPeak: s.HistoryBytesPeak,
		Strands: rep.Strands,
	}
}

// checkKernelRun is the per-iteration gate of a detected kernel run: no
// error, Verify passes, no races, and every counter equals want.
func checkKernelRun(rep *stint.Report, err error, want counters) error {
	if err != nil {
		return err
	}
	if rep.RaceCount != 0 {
		return fmt.Errorf("race-free kernel reported %d races", rep.RaceCount)
	}
	if err := checkCounters(countersOf(rep), want); err != nil {
		return fmt.Errorf("counters changed: %w", err)
	}
	return nil
}

// kernel is one workloads benchmark driven on warm, reused Runners.
type kernel struct {
	factory workloads.Factory
}

// iterate runs one iteration the way a reused Runner serves a request:
// Reset and Arena.Reset, a fresh instance's Setup, the timed Run, Verify.
// Spans go under a root span named after the rung.
func (k *kernel) iterate(r *stint.Runner, log *spanLog, rung string, req int64) (rep *stint.Report, run time.Duration, err error) {
	root := log.begin(rung, 0, req)
	defer log.end(root)
	sp := log.begin("runner.reset", root, req)
	r.Reset()
	r.Arena().Reset()
	log.end(sp)
	w := k.factory()
	sp = log.begin("workload.setup", root, req)
	w.Setup(r)
	log.end(sp)
	sp = log.begin("runner.run", root, req)
	t0 := time.Now()
	rep, err = r.Run(w.Run)
	run = time.Since(t0)
	log.end(sp)
	if err != nil {
		return nil, run, err
	}
	sp = log.begin("workload.verify", root, req)
	err = w.Verify()
	log.end(sp)
	return rep, run, err
}

// setup builds a Runner with opts and runs the kernel once on it: the
// cost a user pays before the first warm run. It returns the Runner and
// the run's counters, which later iterations must repeat.
func (k *kernel) setup(opts stint.Options) (*stint.Runner, counters, error) {
	r, err := stint.NewRunner(opts)
	if err != nil {
		return nil, counters{}, err
	}
	w := k.factory()
	w.Setup(r)
	rep, err := r.Run(w.Run)
	if err == nil {
		err = w.Verify()
	}
	if err != nil {
		return nil, counters{}, err
	}
	return r, countersOf(rep), nil
}

func runKernel(name string, seconds float64, log *spanLog, g *gate, fp *fingerprint) (*metricSet, error) {
	spec := kernelWorkloads[name]
	factory, err := workloads.ByName(spec.name, spec.scale)
	if err != nil {
		return nil, err
	}
	k := &kernel{factory: factory}
	fp.Params = fmt.Sprintf("%s %s scale=%d detector=stint sync", spec.name, factory().Params(), spec.scale)
	if log != nil {
		return k.traced(seconds, log, g)
	}
	return k.measure(seconds, g)
}

// measure is the untraced run: setupReps set-ups, then reset-and-reuse
// iterations on the last Runner for the given time.
func (k *kernel) measure(seconds float64, g *gate) (*metricSet, error) {
	var r *stint.Runner
	var want counters
	var setups []float64
	for i := 0; i < setupReps; i++ {
		r = nil // the previous set-up's Runner is garbage before this one starts
		runtime.GC()
		t0 := time.Now()
		next, c, err := k.setup(stint.Options{Detector: stint.DetectorSTINT})
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i > 0 {
			g.check("set-up counters", checkCounters(c, want))
		}
		r, want = next, c
	}

	var runs, iters []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := int64(0); n == 0 || time.Now().Before(deadline); n++ {
		// Each iteration starts on a collected heap, so the previous
		// iterations' garbage is not collected at a random point in this
		// one. The collection is not timed.
		runtime.GC()
		t0 := time.Now()
		rep, run, err := k.iterate(r, nil, "iteration", n)
		iters = append(iters, ms(time.Since(t0)))
		if g.check(fmt.Sprintf("iteration %d", n), checkKernelRun(rep, err, want)) {
			runs = append(runs, ms(run))
		}
	}

	out := newMetricSet()
	addEndToEnd(out, setups, runs, float64(want.HistoryBytesPeak)/1024, "iterations")
	out.add("traces_per_s", float64(len(iters))/(sum(iters)/1000), "1/s", "iterations per second of iteration wall")
	out.add("latency_ms_p50", median(iters), "ms", "iteration: Reset, Setup, Run, Verify")
	return out, nil
}

func checkCounters(got, want counters) error {
	if got != want {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

// addEndToEnd adds the end-to-end metrics every workload measures the same
// way: set-up time, Runner.Run walls (ms), the history peak and peak RSS.
func addEndToEnd(out *metricSet, setups, runs []float64, histKiB float64, what string) {
	out.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	out.add("run_ms_p50", median(runs), "ms", fmt.Sprintf("%d %s", len(runs), what))
	v, p := tail(runs)
	out.add("run_ms_tail", v, "ms", fmt.Sprintf("p%d of %d %s", p, len(runs), what))
	out.add("hist_peak_kib", histKiB, "KiB", "Stats.HistoryBytesPeak")
	out.add("rss_peak_mib", rssPeakMiB(), "MiB", "VmHWM")
}

// rungs are the Runner configurations of the traced run's ladder.
var rungs = []struct {
	name string
	opts stint.Options
}{
	{"rung.off", stint.Options{Detector: stint.DetectorOff}},
	{"rung.reach", stint.Options{Detector: stint.DetectorReachOnly}},
	{"rung.stint", stint.Options{Detector: stint.DetectorSTINT, TimeAccessHistory: true}},
	// The same configuration as the untraced run, once with spans and once
	// without: their ratio is the tracing overhead.
	{"run.traced", stint.Options{Detector: stint.DetectorSTINT}},
	{"run.untraced", stint.Options{Detector: stint.DetectorSTINT}},
}

// rungOrder lists the rungs' indices for one round. Odd rounds run them in
// reverse, so neither side of the traced/untraced pair always follows the
// other.
func rungOrder(round int) []int {
	order := make([]int, len(rungs))
	for j := range order {
		order[j] = j
		if round%2 == 1 {
			order[j] = len(rungs) - 1 - j
		}
	}
	return order
}

// ladderSamples holds per-round rung walls and the stint rung's counters.
type ladderSamples struct {
	wall    map[string][]float64 // rung name → ms per round
	history []float64            // stint rung AccessHistoryTime, ms per round
	stats   stint.Stats          // stint rung counters (identical every round)
	strands int
}

// layers splits the stint rung's median wall into the four detection
// layers. By construction they sum to that median.
func (l *ladderSamples) layers() (program, reach, hooksCoalesce, history float64) {
	program = median(l.wall["rung.off"])
	reachWall := median(l.wall["rung.reach"])
	history = median(l.history)
	return program, reachWall - program, median(l.wall["rung.stint"]) - reachWall - history, history
}

// addLadder adds the rung-ladder metrics: the four layer times and the
// counters of the hook, coalescing and history layers.
func addLadder(out *metricSet, l *ladderSamples, unit string) {
	program, reach, hc, hist := l.layers()
	n := len(l.history)
	note := fmt.Sprintf("median of %d %s", n, unit)
	out.add("program.ms", program, "ms", note)
	out.add("overhead_x", median(l.wall["run.untraced"])/program, "x", "untraced stint run / program")
	out.add("reach.ms", reach, "ms", "reach rung - off rung")
	out.add("reach.strands", float64(l.strands), "count", "")
	out.add("hooks_coalesce.ms", hc, "ms", "stint rung - reach rung - history.ms")
	s := &l.stats
	calls := float64(s.ReadHookCalls + s.WriteHookCalls)
	intervals := float64(s.ReadIntervals + s.WriteIntervals)
	out.add("hooks.calls", calls, "count", "")
	out.add("hooks.words", float64(s.ReadAccesses+s.WriteAccesses), "count", "")
	out.add("coalesce.intervals", intervals, "count", "")
	out.add("coalesce.intervals_per_call", intervals/calls, "ratio", "")
	out.add("history.ms", hist, "ms", "Stats.AccessHistoryTime")
	out.add("history.treap_ops", float64(s.TreapOps), "count", "")
	out.add("history.nodes_per_op", float64(s.TreapNodesVisited)/float64(s.TreapOps), "ratio", "")
	out.add("history.overlaps_per_op", float64(s.TreapOverlaps)/float64(s.TreapOps), "ratio", "")
	out.add("trace.overhead_x", median(l.wall["run.traced"])/median(l.wall["run.untraced"]), "x", "traced / untraced stint run")
}

// traced is the per-layer run. Its time splits into the rung ladder, the
// decode layer over the kernel's recorded trace, and the service layer
// serving that trace.
func (k *kernel) traced(seconds float64, log *spanLog, g *gate) (*metricSet, error) {
	start := time.Now()
	phaseEnd := func(share float64) time.Time {
		return start.Add(time.Duration(share * seconds * float64(time.Second)))
	}
	runners := make([]*stint.Runner, len(rungs))
	var want counters
	for i, rg := range rungs {
		r, c, err := k.setup(rg.opts)
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", rg.name, err)
		}
		runners[i] = r
		if rg.opts.Detector == stint.DetectorSTINT {
			want = c
		}
	}

	l := &ladderSamples{wall: make(map[string][]float64)}
	req := int64(0)
	for end, n := phaseEnd(0.55), 0; n == 0 || time.Now().Before(end); n++ {
		for _, i := range rungOrder(n) {
			rg := rungs[i]
			req++
			rlog := log
			if rg.name == "run.untraced" {
				rlog = nil
			}
			runtime.GC()
			rep, run, err := k.iterate(runners[i], rlog, rg.name, req)
			if rg.opts.Detector == stint.DetectorSTINT {
				err = checkKernelRun(rep, err, want)
			}
			if !g.check(rg.name, err) {
				continue
			}
			l.wall[rg.name] = append(l.wall[rg.name], ms(run))
			if rg.name == "rung.stint" {
				l.history = append(l.history, ms(rep.Stats.AccessHistoryTime))
				l.stats, l.strands = rep.Stats, rep.Strands
			}
		}
	}
	if len(l.history) == 0 {
		return nil, errors.New("no rung ladder round passed the gate")
	}
	out := newMetricSet()
	addLadder(out, l, "rounds")
	out.add("runner.reset_us", median(durationsMs(log.durations("runner.reset", "run.traced")))*1000, "us", "Reset + Arena.Reset")
	out.add("workload.setup_ms", median(durationsMs(log.durations("workload.setup", "run.traced"))), "ms", "workload Setup")

	// Decode: record the kernel once, then replay the trace over a
	// detection-off Runner (decode alone) and a STINT Runner.
	data, events, err := record(func(r *stint.Runner) stint.TaskFunc {
		w := k.factory()
		w.Setup(r)
		return w.Run
	})
	if err != nil {
		return nil, fmt.Errorf("recording the kernel: %w", err)
	}
	// The replay must find no races over the live run's strands.
	ref := &reference{strands: want.Strands}
	off, untraced := runners[0], runners[len(runners)-1]
	var decode, replay []float64
	for end, n := phaseEnd(0.75), 0; n == 0 || time.Now().Before(end); n++ {
		req++
		for _, rg := range []struct {
			name string
			r    *stint.Runner
			into *[]float64
		}{{"trace.decode", off, &decode}, {"trace.replay", untraced, &replay}} {
			sp := log.begin(rg.name, 0, req)
			t0 := time.Now()
			rep, err := trace.Replay(bytes.NewReader(data), trace.Options{Runner: rg.r})
			d := time.Since(t0)
			log.end(sp)
			if err == nil && rg.r == untraced {
				res := resultOf(rep)
				err = ref.match(&res)
			}
			if g.check(rg.name, err) {
				*rg.into = append(*rg.into, ms(d))
			}
		}
	}
	out.add("trace.decode_ms_p50", median(decode), "ms", fmt.Sprintf("%d replays, detection off", len(decode)))
	out.add("trace.replay_ms_p50", median(replay), "ms", fmt.Sprintf("%d replays, stint", len(replay)))
	out.add("trace.bytes_per_event", float64(len(data))/float64(events), "B/event", fmt.Sprintf("%d bytes", len(data)))

	// Service: one client serves the kernel's trace through stint-serve in
	// a closed loop.
	svc, err := startService(-1)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	var reqs []*request
	qmax := svc.sampleQueue(func() {
		for end, n := phaseEnd(1), 0; n == 0 || time.Now().Before(end); n++ {
			req++
			rq := svc.do(log, req, data, time.Now())
			if g.check("served kernel trace", rq.check(ref)) {
				reqs = append(reqs, rq)
			}
		}
	})
	if err := addServiceLayers(out, svc, reqs, nil, qmax); err != nil {
		return nil, err
	}
	return out, nil
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
