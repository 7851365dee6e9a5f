package cliutil

import (
	"strings"
	"testing"
	"time"

	"stint"
)

func TestPipelineReportSyncRunIsSilent(t *testing.T) {
	if lines := PipelineReport(&stint.Report{}); lines != nil {
		t.Fatalf("expected no lines for a synchronous run, got %v", lines)
	}
}

func TestPipelineReportAsync(t *testing.T) {
	rep := &stint.Report{WallTime: 10 * time.Millisecond}
	rep.Stats.PipelineDetectTime = 5 * time.Millisecond
	lines := PipelineReport(rep)
	if len(lines) != 1 {
		t.Fatalf("want 1 line, got %v", lines)
	}
	if !strings.Contains(lines[0], "detector-goroutine busy") || !strings.Contains(lines[0], "50%") {
		t.Errorf("unexpected line: %q", lines[0])
	}
}

// TestPipelineReportFromRealAsyncRun checks the readout of an actual Async
// run: the event-stream line, then the detector-goroutine line.
func TestPipelineReportFromRealAsyncRun(t *testing.T) {
	r, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("b", 1<<17)
	rep, err := r.Run(func(task *stint.Task) {
		task.Spawn(func(c *stint.Task) { c.StoreRange(buf, 0, 1<<17) })
		task.LoadRange(buf, 0, 1<<17)
		task.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := PipelineReport(rep)
	if len(lines) != 2 {
		t.Fatalf("want stream line + busy line from an Async run, got %v", lines)
	}
	if !strings.Contains(lines[0], "event stream") || !strings.Contains(lines[0], "B/event") {
		t.Errorf("missing stream readout: %q", lines[0])
	}
	if !strings.Contains(lines[1], "detector-goroutine busy") {
		t.Errorf("missing busy readout: %q", lines[1])
	}
}
