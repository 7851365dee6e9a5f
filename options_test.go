package stint

import (
	"strings"
	"testing"
)

// nopTracer satisfies Tracer for validation tests.
type nopTracer struct{}

func (nopTracer) Spawn()                       {}
func (nopTracer) Restore()                     {}
func (nopTracer) Sync()                        {}
func (nopTracer) Read(Addr, uint64)            {}
func (nopTracer) Write(Addr, uint64)           {}
func (nopTracer) ReadRange(Addr, int, uint64)  {}
func (nopTracer) WriteRange(Addr, int, uint64) {}

// TestNewRunnerValidationTable exercises every rule in the options table:
// each rejected combination names the offending option in its error, and
// each boundary-legal combination constructs a Runner.
func TestNewRunnerValidationTable(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		// wantErr, when non-empty, must be a substring of the error.
		wantErr string
	}{
		// Parallel is only compatible with DetectorOff, no tracer, no async.
		{"parallel off ok", Options{Detector: DetectorOff, Parallel: true}, ""},
		{"parallel vanilla", Options{Detector: DetectorVanilla, Parallel: true}, "Parallel"},
		{"parallel stint", Options{Detector: DetectorSTINT, Parallel: true}, "Parallel"},
		{"parallel tracer", Options{Detector: DetectorOff, Parallel: true, Tracer: nopTracer{}}, "tracing"},
		{"parallel async", Options{Detector: DetectorOff, Parallel: true, Async: true}, "Async and Parallel"},

		// MaxRacesRecorded: negative rejected, zero defaults, positive kept.
		{"negative max races", Options{Detector: DetectorSTINT, MaxRacesRecorded: -1}, "MaxRacesRecorded"},
		{"negative max races async", Options{Detector: DetectorSTINT, Async: true, MaxRacesRecorded: -7}, "MaxRacesRecorded"},
		{"zero max races defaults", Options{Detector: DetectorSTINT}, ""},
		{"positive max races", Options{Detector: DetectorSTINT, MaxRacesRecorded: 3}, ""},

		// PageQuiesceThreshold and MaxHistoryBytes: negative rejected; the
		// history cap needs a detector with an access history.
		{"negative quiesce", Options{Detector: DetectorSTINT, PageQuiesceThreshold: -1}, "PageQuiesceThreshold"},
		{"negative max history", Options{Detector: DetectorSTINT, MaxHistoryBytes: -1}, "MaxHistoryBytes"},
		{"max history reach-only", Options{Detector: DetectorReachOnly, MaxHistoryBytes: 4096}, "access history"},
		{"max history async ok", Options{Detector: DetectorSTINT, Async: true, MaxHistoryBytes: 4096}, ""},

		// Plain configurations stay legal.
		{"default", Options{}, ""},
		{"async stint", Options{Detector: DetectorSTINT, Async: true}, ""},
		{"tracer serial", Options{Detector: DetectorSTINT, Tracer: nopTracer{}}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRunner(c.opts)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if r == nil {
					t.Fatal("nil Runner without error")
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got none", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
			if !strings.HasPrefix(err.Error(), "stint: ") {
				t.Fatalf("error %q not prefixed with package name", err)
			}
		})
	}
}

// TestValidateFirstViolationWins pins the table order: an Options value
// violating several rules reports the earliest one, so error messages are
// stable as rules accumulate.
func TestValidateFirstViolationWins(t *testing.T) {
	opts := Options{Detector: DetectorVanilla, Parallel: true, MaxRacesRecorded: -1, PageQuiesceThreshold: -5}
	_, err := NewRunner(opts)
	if err == nil || !strings.Contains(err.Error(), "Parallel") {
		t.Fatalf("expected the Parallel rule to win, got %v", err)
	}
}

// TestMaxRacesDefaultApplied checks the zero-value default survives the
// validation path: Report.Races is bounded by 64 when unset.
func TestMaxRacesDefaultApplied(t *testing.T) {
	r, err := NewRunner(Options{Detector: DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.opts.MaxRacesRecorded; got != 64 {
		t.Fatalf("defaulted MaxRacesRecorded = %d, want 64", got)
	}
}
