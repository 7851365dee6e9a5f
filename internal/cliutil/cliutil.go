// Package cliutil holds output helpers shared by the stint command-line
// tools, so the live-run and replay binaries describe pipeline behavior in
// the same words and the same arithmetic.
package cliutil

import (
	"fmt"
	"time"

	"stint"
	"stint/internal/serve"
)

// pct formats part as a percentage of whole, guarding division by zero.
func pct(part, whole time.Duration) string {
	if whole <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}

// PipelineReport renders the async pipeline's utilization readout: the
// event stream's wire cost and the detector goroutine's busy time against
// the run's wall time. It returns nil for synchronous runs (no pipeline,
// nothing to report).
//
// On a single core the pipeline cannot beat the synchronous run — the busy
// figure then says how much detection work would overlap with compute once
// cores are available, which is why the line spells out the "max of the
// two sides" floor instead of promising a speedup.
func PipelineReport(rep *stint.Report) []string {
	st := rep.Stats
	busy := st.PipelineDetectTime
	if busy <= 0 {
		return nil
	}
	var lines []string
	if st.EventsStreamed > 0 {
		lines = append(lines, fmt.Sprintf(
			"event stream: %d events in %d bytes (%.2f B/event)",
			st.EventsStreamed, st.StreamBytes,
			float64(st.StreamBytes)/float64(st.EventsStreamed)))
	}
	return append(lines, fmt.Sprintf(
		"detector-goroutine busy %v of %v wall (%s; multi-core floor is max of the two sides)",
		busy.Round(time.Microsecond),
		rep.WallTime.Round(time.Microsecond),
		pct(busy, rep.WallTime)))
}

// ServeStatus renders a trace-ingest service's pool utilization — the
// /v1/statusz payload — in the same vocabulary stint-serve's API uses:
// fleet occupancy, admission-queue depth, the admission counters, and the
// lifetime throughput.
func ServeStatus(st serve.Stats) []string {
	lines := []string{
		fmt.Sprintf("runners     %d busy / %d idle (fleet %d)", st.Busy, st.Idle, st.Runners),
		fmt.Sprintf("queue       %d/%d pending", st.QueueLen, st.QueueCap),
		fmt.Sprintf("admissions  %d admitted, %d rejected, %d oversized, %d failed",
			st.Admitted, st.Rejected, st.Oversized, st.Failed),
	}
	tps := "-"
	if st.TracesPerSec > 0 {
		tps = fmt.Sprintf("%.1f traces/sec", st.TracesPerSec)
	}
	lines = append(lines, fmt.Sprintf("throughput  %d completed, %s over %.2fs",
		st.Completed, tps, st.UptimeSec))
	return lines
}
