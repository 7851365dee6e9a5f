package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"stint"
	"stint/workloads"
)

func TestKernelGateTripsOnCorruptExpectation(t *testing.T) {
	k := &kernel{factory: func() workloads.Workload { return workloads.NewSort(4096, 64) }}
	r, want, err := k.setup(stint.Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := k.iterate(r, nil, "iteration", 1)
	if err := checkKernelRun(rep, err, want); err != nil {
		t.Fatalf("clean iteration failed the gate: %v", err)
	}
	bad := want
	bad.TreapOps++
	rep, _, err = k.iterate(r, nil, "iteration", 2)
	if checkKernelRun(rep, err, bad) == nil {
		t.Fatal("a corrupted TreapOps expectation passed the gate")
	}
}

func TestKernelGateTripsOnRaces(t *testing.T) {
	k := &kernel{factory: func() workloads.Workload { return workloads.NewRacySort(4096, 64) }}
	r, want, err := k.setup(stint.Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := k.iterate(r, nil, "iteration", 1)
	if err := checkKernelRun(rep, err, want); err == nil || !strings.Contains(err.Error(), "races") {
		t.Fatalf("a racy kernel passed the gate: %v", err)
	}
}

// TestServeGateTripsOnCorruptExpectation serves every trace of a small mix
// once, first against true references and then with one reference's race
// count corrupted: exactly that trace's request must fail.
func TestServeGateTripsOnCorruptExpectation(t *testing.T) {
	mix, err := genMix(5, 16)
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{}
	refs, err := references(mix, g)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := startService(0)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	lg := &loadGen{svc: svc, g: g, mix: mix, refs: refs, order: sendOrder(5, len(mix)), clients: 2}
	end := time.Now().Add(time.Minute)
	if reqs := lg.closed(end, int64(len(mix))); len(reqs) != len(mix) || g.failed != 0 {
		t.Fatalf("clean pass: %d of %d served, %d failed: %v", len(reqs), len(mix), g.failed, g.errs)
	}

	refs[lg.order[0]].raceCount++
	g = &gate{}
	lg.g = g
	lg.next.Store(0)
	reqs := lg.closed(end, int64(len(mix)))
	if g.failed != 1 || g.attempted != len(mix) || len(reqs) != len(mix)-1 {
		t.Fatalf("corrupted pass: %d of %d failed, %d passed; want exactly one failure", g.failed, g.attempted, len(reqs))
	}
}

// TestResultLineReportsFailure checks the result line a failing run prints.
func TestResultLineReportsFailure(t *testing.T) {
	g := &gate{}
	g.check("ok", nil)
	g.check("bad", errors.New("wrong result"))
	ms := newMetricSet()
	ms.add("setup_s", 1.5, "s", "")
	var buf bytes.Buffer
	ms.print(&buf, g)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 || res.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("result line %+v", res)
	}
}
