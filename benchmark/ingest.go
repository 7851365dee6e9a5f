package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stint"
	"stint/internal/serve"
	"stint/trace"
)

// openRate is the open-loop offered rate in traces per second: between a
// quarter and a third of the closed-loop capacity measured on a 2-vCPU
// Intel Xeon virtual machine (1700-2400 traces/s). At half the capacity a
// burst of contention from other tenants pushed the open loop past
// saturation and its latencies grew without bound.
const openRate = 600

// closedShare is the share of a serve-ingest run spent in the closed loop;
// the open loop takes the rest.
const closedShare = 1.0 / 3

// reference is the expected result of one trace: an offline sync replay of
// the same bytes, plus what the generator intended.
type reference struct {
	raceCount uint64
	strands   int
	races     []string
	racy      bool
	histPeak  uint64
}

// references replays every trace of the mix offline on a fresh STINT
// Runner and gates each against the generator's intent.
func references(mix []mixTrace, g *gate) ([]*reference, error) {
	refs := make([]*reference, len(mix))
	for i, m := range mix {
		rep, err := trace.Replay(bytes.NewReader(m.data), trace.Options{Detector: stint.DetectorSTINT})
		if err != nil {
			return nil, fmt.Errorf("reference replay of trace %d: %w", i, err)
		}
		res := resultOf(rep)
		ref := &reference{raceCount: res.RaceCount, strands: res.Strands, races: res.Races, racy: m.racy, histPeak: rep.Stats.HistoryBytesPeak}
		refs[i] = ref
		g.check(fmt.Sprintf("reference of trace %d", i), ref.intended())
	}
	return refs, nil
}

// intended checks a reference against the generator: planted-race traces
// race, the others do not.
func (ref *reference) intended() error {
	if ref.racy && ref.raceCount == 0 {
		return errors.New("planted race not found")
	}
	if !ref.racy && ref.raceCount != 0 {
		return fmt.Errorf("race-free trace reported %d races", ref.raceCount)
	}
	return nil
}

// servedResult and serveStatus mirror the service's JSON API.
type servedResult struct {
	Status    string   `json:"status"`
	Error     string   `json:"error"`
	RaceCount uint64   `json:"race_count"`
	Strands   int      `json:"strands"`
	Races     []string `json:"races"`
	WallTime  string   `json:"wall_time"`
}

type serveStatus struct {
	QueueLen int    `json:"queue_len"`
	Rejected uint64 `json:"rejected"`
}

// service is a stint-serve instance on a loopback port with its client. The
// client opens at most nproc connections.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	hc     *http.Client
	start  time.Duration // serve.New: building and warming the fleet
}

// startService starts stint-serve with its default runner count
// (GOMAXPROCS) and detector (sync STINT). maxTraceBytes is passed through;
// zero keeps the service default.
func startService(maxTraceBytes int64) (*service, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Config{Runners: runtime.GOMAXPROCS(0), MaxTraceBytes: maxTraceBytes})
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, start: time.Since(t0), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	nproc := runtime.NumCPU()
	s.hc = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true},
	}
	return s, nil
}

// close stops the HTTP server, waits for it, and stops the worker fleet.
func (s *service) close() {
	_ = s.hs.Close() // the listener's close error does not matter at shutdown
	<-s.served
	s.hc.CloseIdleConnections()
	s.srv.Close()
}

// getJSON and the upload below read and close every body so connections
// are reused.
func (s *service) getJSON(path string, v any) error {
	resp, err := s.hc.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *service) upload(data []byte) (string, error) {
	resp, err := s.hc.Post(s.base+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /v1/traces: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var id struct{ ID string }
	if err := json.Unmarshal(body, &id); err != nil {
		return "", fmt.Errorf("POST /v1/traces: %w", err)
	}
	return id.ID, nil
}

// request is one trace's round trip.
type request struct {
	trace               int
	due, sent, accepted time.Time
	done                time.Time
	polls               int
	res                 servedResult
	wall                time.Duration // the server-reported replay wall
	err                 error
}

func (rq *request) latency() time.Duration { return rq.done.Sub(rq.due) }
func (rq *request) upload() time.Duration  { return rq.accepted.Sub(rq.sent) }

// resultTimeout bounds the wait for one result; the slowest replay the
// benchmark sends, the sort kernel's trace, takes about a second.
const resultTimeout = 30 * time.Second

// do uploads data when due and polls until the result is done. The first
// poll waits 100 µs and the wait doubles up to 200 µs, or an eighth of the
// time spent so far on a long replay, so a result is seen done within about
// an eighth of its latency.
func (s *service) do(log *spanLog, req int64, data []byte, due time.Time) *request {
	rq := &request{due: due}
	root := log.beginAt("serve.request", 0, req, due)
	defer log.end(root)
	rq.sent = time.Now()
	sp := log.begin("serve.upload", root, req)
	id, err := s.upload(data)
	log.end(sp)
	rq.accepted = time.Now()
	if err != nil {
		rq.err = err
		return rq
	}
	path := "/v1/results/" + id
	for wait := 100 * time.Microsecond; ; {
		sleep(wait)
		sp := log.begin("serve.poll", root, req)
		rq.res = servedResult{}
		err := s.getJSON(path, &rq.res)
		log.end(sp)
		rq.polls++
		if err != nil {
			rq.err = err
			return rq
		}
		if rq.res.Status == "done" || rq.res.Status == "error" {
			break
		}
		if time.Since(rq.sent) > resultTimeout {
			rq.err = fmt.Errorf("%s still %s after %v", id, rq.res.Status, resultTimeout)
			return rq
		}
		wait = min(2*wait, max(200*time.Microsecond, time.Since(rq.sent)/8))
	}
	rq.done = time.Now()
	if rq.res.Status == "done" {
		rq.wall, rq.err = time.ParseDuration(rq.res.WallTime)
	}
	return rq
}

// sleep pauses the calling goroutine for d. time.Sleep rounds waits below
// a millisecond up to about one millisecond on Linux, which would swamp
// sub-millisecond latencies; nanosleep overshoots by tens of microseconds.
func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// resultOf renders a Report the way the service does.
func resultOf(rep *stint.Report) servedResult {
	res := servedResult{Status: "done", RaceCount: rep.RaceCount, Strands: rep.Strands}
	for _, rc := range rep.Races {
		res.Races = append(res.Races, rc.String())
	}
	return res
}

// check compares a served result with its reference.
func (rq *request) check(ref *reference) error {
	if rq.err != nil {
		return rq.err
	}
	return ref.match(&rq.res)
}

// match compares a result with the reference.
func (ref *reference) match(r *servedResult) error {
	if r.Status != "done" {
		return fmt.Errorf("status %q: %s", r.Status, r.Error)
	}
	if r.RaceCount != ref.raceCount || r.Strands != ref.strands || !slices.Equal(r.Races, ref.races) {
		return fmt.Errorf("served %d races over %d strands, reference %d over %d (race lists equal: %v)",
			r.RaceCount, r.Strands, ref.raceCount, ref.strands, slices.Equal(r.Races, ref.races))
	}
	return nil
}

// sampleQueue runs fn while sampling /v1/statusz every 5 ms, and returns
// the longest admission queue seen.
func (s *service) sampleQueue(fn func()) int {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	qmax := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var st serveStatus
				if s.getJSON("/v1/statusz", &st) == nil {
					qmax = max(qmax, st.QueueLen)
				}
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	return qmax
}

// loadGen drives the service with a mix.
type loadGen struct {
	svc     *service
	log     *spanLog
	g       *gate
	mix     []mixTrace
	refs    []*reference
	order   []int
	clients int
	next    atomic.Int64 // request numbers, shared by the phases
}

// drive runs the clients until more reports false. Each client takes the
// next request number k, waits until due(k), sends trace order[k mod n]
// and waits for its own result, so no more than clients requests are in
// flight. It returns the requests that passed the gate.
func (lg *loadGen) drive(more func(k int64) bool, due func(k int64) time.Time) []*request {
	var mu sync.Mutex
	var passed []*request
	var wg sync.WaitGroup
	for c := 0; c < lg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := lg.next.Add(1) - 1
				if !more(k) {
					return
				}
				at := due(k)
				sleep(time.Until(at))
				ti := lg.order[int(k)%len(lg.order)]
				rq := lg.svc.do(lg.log, k, lg.mix[ti].data, at)
				rq.trace = ti
				if lg.g.check(fmt.Sprintf("request %d (trace %d)", k, ti), rq.check(lg.refs[ti])) {
					mu.Lock()
					passed = append(passed, rq)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return passed
}

// closed runs a closed loop until end or until limit requests were taken.
func (lg *loadGen) closed(end time.Time, limit int64) []*request {
	first := lg.next.Load()
	return lg.drive(func(k int64) bool { return k-first < limit && time.Now().Before(end) },
		func(int64) time.Time { return time.Now() })
}

// open offers openRate traces per second on a fixed schedule from t0
// until end.
func (lg *loadGen) open(t0, end time.Time) []*request {
	first := lg.next.Load()
	period := time.Second / openRate
	due := func(k int64) time.Time { return t0.Add(time.Duration(k-first) * period) }
	return lg.drive(func(k int64) bool { return due(k).Before(end) }, due)
}

// window is the length of the windows that serve-ingest's capacity and
// latency are measured over: the time in which the open loop offers 100
// traces. On a shared virtual machine, contention from other tenants comes
// in bursts, from a 10-30 ms stall to minutes of slower CPUs and slower
// wake-ups, and it slows whole windows. So capacity is the upper quartile
// of the windows' rates and latency the lower quartile of their medians:
// what the service delivers while it has the machine, which is what a
// change to the code moves.
const window = 100 * time.Second / openRate

// windows splits [t0, t0+n×width) into n windows and returns, for each,
// the values of the requests whose time falls in it.
func windows(t0 time.Time, width time.Duration, n int, reqs []*request, at func(*request) time.Time, val func(*request) float64) [][]float64 {
	w := make([][]float64, n)
	for _, rq := range reqs {
		if i := int(at(rq).Sub(t0) / width); i >= 0 && i < n {
			w[i] = append(w[i], val(rq))
		}
	}
	return w
}

func runIngest(seed uint64, seconds float64, log *spanLog, g *gate, fp *fingerprint) (*metricSet, error) {
	clients := runtime.NumCPU()
	fp.Params = fmt.Sprintf("mix=%d racy=1/%d tail=1/%d tail_words=%d small_words=%d-%d runners=%d clients=%d open_rate=%d/s closed_share=%g detector=stint sync",
		mixSize, mixRacyEvery, mixTailEvery, tailWords, smallWordsMin, smallWordsMax, runtime.GOMAXPROCS(0), clients, openRate, closedShare)

	// Set-up, repeated: generate the mix, replay the references, start the
	// service and send every trace through it once.
	var lg *loadGen
	var setups []float64
	var first []mixTrace
	for i := 0; i < setupReps; i++ {
		if lg != nil {
			lg.svc.close()
		}
		lg = nil
		runtime.GC()
		t0 := time.Now()
		mix, err := genMix(seed, mixSize)
		if err != nil {
			return nil, err
		}
		refs, err := references(mix, g)
		if err != nil {
			return nil, err
		}
		svc, err := startService(0)
		if err != nil {
			return nil, err
		}
		lg = &loadGen{svc: svc, g: g, mix: mix, refs: refs, order: sendOrder(seed, len(mix)), clients: clients}
		lg.closed(time.Now().Add(time.Minute), int64(len(mix)))
		setups = append(setups, time.Since(t0).Seconds())
		if first == nil {
			first = mix
		} else {
			g.check("mix regenerated from the same seed", sameMix(first, mix))
		}
	}
	defer lg.svc.close()

	histPeak := uint64(0)
	for _, ref := range lg.refs {
		histPeak = max(histPeak, ref.histPeak)
	}
	if log != nil {
		lg.log = log
		return lg.traced(seconds)
	}

	start := time.Now()
	closedWin := int(closedShare * seconds * float64(time.Second) / float64(window))
	closedReqs := lg.closed(start.Add(time.Duration(closedWin)*window), 1<<62)
	var rates []float64
	done := func(rq *request) time.Time { return rq.done }
	for _, w := range windows(start, window, closedWin, closedReqs, done, func(*request) float64 { return 1 }) {
		rates = append(rates, float64(len(w))/window.Seconds())
	}
	openWin := int((1 - closedShare) * seconds * float64(time.Second) / float64(window))
	openStart := time.Now()
	openReqs := lg.open(openStart, openStart.Add(time.Duration(openWin)*window))
	var walls, lats, meds []float64
	for _, rq := range openReqs {
		walls = append(walls, ms(rq.wall))
		lats = append(lats, ms(rq.latency()))
	}
	due := func(rq *request) time.Time { return rq.due }
	for _, w := range windows(openStart, window, openWin, openReqs, due, func(rq *request) float64 { return ms(rq.latency()) }) {
		meds = append(meds, median(w))
	}
	out := newMetricSet()
	addEndToEnd(out, setups, walls, float64(histPeak)/1024, "open-loop traces")
	out.add("traces_per_s", quantile(rates, 0.75), "1/s", fmt.Sprintf("closed loop, %d clients, upper quartile of %d %v windows (median %.4g)",
		lg.clients, len(rates), window, median(rates)))
	out.add("latency_ms_p50", quantile(meds, 0.25), "ms", fmt.Sprintf("open loop at %d/s, lower quartile of %d %v windows' medians; whole loop p50 %.3g p90 %.3g p99 %.3g",
		openRate, len(meds), window, median(lats), quantile(lats, 0.90), quantile(lats, 0.99)))
	return out, nil
}

// sameMix reports whether two generated mixes are byte-identical.
func sameMix(a, b []mixTrace) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d traces vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].data, b[i].data) || a[i].racy != b[i].racy {
			return fmt.Errorf("trace %d differs", i)
		}
	}
	return nil
}

// traced is serve-ingest's per-layer run: the rung ladder over the mix
// replayed offline, then the service under the open loop with spans.
func (lg *loadGen) traced(seconds float64) (*metricSet, error) {
	start := time.Now()
	log, g := lg.log, lg.g
	runners := make([]*stint.Runner, len(rungs))
	for i, rg := range rungs {
		r, err := stint.NewRunner(rg.opts)
		if err != nil {
			return nil, err
		}
		runners[i] = r
	}
	var bytesTotal, events uint64
	for _, m := range lg.mix {
		bytesTotal += uint64(len(m.data))
		events += m.events
	}

	// The ladder: one round replays the whole mix on every rung. A rung's
	// sample is the round's summed Replay wall.
	l := &ladderSamples{wall: make(map[string][]float64)}
	var decode, replay []float64
	req := int64(0)
	ladderEnd := start.Add(time.Duration(0.45 * seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(ladderEnd); round++ {
		for _, i := range rungOrder(round) {
			rg := rungs[i]
			r, rlog := runners[i], log
			if rg.name == "run.untraced" {
				rlog = nil
			}
			pass := rlog.begin(rg.name, 0, int64(round))
			var wall, hist float64
			var stats stint.Stats
			strands, ok := 0, true
			for ti, m := range lg.mix {
				req++
				sp := rlog.begin("runner.reset", pass, req)
				r.Reset()
				rlog.end(sp)
				sp = rlog.begin("trace.replay", pass, req)
				t0 := time.Now()
				rep, err := trace.Replay(bytes.NewReader(m.data), trace.Options{Runner: r})
				d := ms(time.Since(t0))
				rlog.end(sp)
				if err == nil && rg.opts.Detector == stint.DetectorSTINT {
					res := resultOf(rep)
					err = lg.refs[ti].match(&res)
				}
				if !g.check(fmt.Sprintf("%s replay of trace %d", rg.name, ti), err) {
					ok = false
					continue
				}
				wall += d
				switch rg.name {
				case "rung.off":
					decode = append(decode, d)
				case "run.untraced":
					replay = append(replay, d)
				case "rung.stint":
					hist += ms(rep.Stats.AccessHistoryTime)
					stats.Accumulate(&rep.Stats)
					strands += rep.Strands
				}
			}
			rlog.end(pass)
			if !ok {
				continue
			}
			l.wall[rg.name] = append(l.wall[rg.name], wall)
			if rg.name == "rung.stint" {
				l.history = append(l.history, hist)
				l.stats, l.strands = stats, strands
			}
		}
	}
	if len(l.history) == 0 {
		return nil, errors.New("no rung ladder round passed the gate")
	}
	out := newMetricSet()
	addLadder(out, l, "passes over the mix")
	out.add("runner.reset_us", median(durationsMs(log.durations("runner.reset", "run.traced")))*1000, "us", "Reset")
	out.add("workload.setup_ms", ms(lg.svc.start), "ms", "serve.New: build and warm the fleet")
	out.add("trace.decode_ms_p50", median(decode), "ms", fmt.Sprintf("%d replays, detection off", len(decode)))
	out.add("trace.replay_ms_p50", median(replay), "ms", fmt.Sprintf("%d replays, stint", len(replay)))
	out.add("trace.bytes_per_event", float64(bytesTotal)/float64(events), "B/event", fmt.Sprintf("%d bytes", bytesTotal))

	var reqs []*request
	qmax := lg.svc.sampleQueue(func() {
		reqs = lg.open(time.Now(), start.Add(time.Duration(seconds*float64(time.Second))))
	})
	if err := addServiceLayers(out, lg.svc, reqs, lg.mix, qmax); err != nil {
		return nil, err
	}
	return out, nil
}

// addServiceLayers adds the service, race-collection and load-generator
// metrics of the requests that passed the gate. mix, when non-nil, tells
// which traces are racy.
func addServiceLayers(out *metricSet, svc *service, reqs []*request, mix []mixTrace, qmax int) error {
	var st serveStatus
	if err := svc.getJSON("/v1/statusz", &st); err != nil {
		return err
	}
	var upload, wall, wait, lats []float64
	late, polls, races, racy := 0.0, 0, uint64(0), 0
	for _, rq := range reqs {
		upload = append(upload, ms(rq.upload()))
		wall = append(wall, ms(rq.wall))
		wait = append(wait, ms(rq.latency()-rq.upload()-rq.wall))
		lats = append(lats, ms(rq.latency()))
		late = max(late, ms(rq.sent.Sub(rq.due)))
		polls += rq.polls
		if mix != nil && mix[rq.trace].racy {
			races += rq.res.RaceCount
			racy++
		}
	}
	n := fmt.Sprintf("%d requests", len(reqs))
	out.add("serve.upload_ms_p50", median(upload), "ms", n)
	out.add("serve.replay_ms_p50", median(wall), "ms", "server-reported wall_time")
	out.add("serve.wait_ms_p50", median(wait), "ms", "latency - upload - replay")
	out.add("serve.latency_ms_p99", quantile(lats, 0.99), "ms", "due time to result seen done")
	out.add("serve.rejected", float64(st.Rejected), "count", "429s since start")
	out.add("serve.queue_len_max", float64(qmax), "count", "statusz every 5 ms")
	perRacy := 0.0
	if racy > 0 {
		perRacy = float64(races) / float64(racy)
	}
	out.add("races.per_racy_trace", perRacy, "count", fmt.Sprintf("%d racy traces", racy))
	out.add("loadgen.late_ms_max", late, "ms", "send time - due time")
	out.add("loadgen.polls_per_trace", float64(polls)/float64(max(len(reqs), 1)), "count", "")
	return nil
}
