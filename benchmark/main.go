// Command stintbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every result, and prints the workload's metrics:
// the end-to-end ones with --trace 0 and the per-layer ones, from a run that
// records a span around every call into the system, with --trace 1.
//
//	bash benchmark/run.sh --workload sort-hooks --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are a
// human-readable readout starting with the machine fingerprint. The exit
// code is non-zero when any result was wrong. README.md lists the
// workloads, the metrics and which layer each one measures.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// workloadNames lists the workloads in README order.
var workloadNames = []string{"sort-hooks", "fft-history", "serve-ingest"}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed for the serve-ingest trace mix and send order")
	seconds := flag.Float64("seconds", 30, "measurement time")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for the traced run's span file")
	flag.Parse()

	fp := newFingerprint(*workload, *seed, *seconds, *traced)
	var log *spanLog
	if *traced == 1 {
		log = newSpanLog()
	}
	g := &gate{}
	var metrics *metricSet
	var err error
	switch *workload {
	case "sort-hooks", "fft-history":
		metrics, err = runKernel(*workload, *seconds, log, g, &fp)
	case "serve-ingest":
		metrics, err = runIngest(*seed, *seconds, log, g, &fp)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stintbench:", err)
		os.Exit(2)
	}
	if log != nil {
		if err := os.MkdirAll(*out, 0o755); err == nil {
			path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
			if err := log.write(path, fp); err != nil {
				fmt.Fprintln(os.Stderr, "stintbench: writing spans:", err)
			}
		}
	}
	fp.print(os.Stdout)
	metrics.print(os.Stdout, g)
	if g.failed > 0 {
		os.Exit(1)
	}
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics in the order they were added, each
// with an optional note for the readout (which percentile a tail is, how
// many samples it rests on).
type metricSet struct {
	order []string
	m     map[string]metric
	notes map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{m: make(map[string]metric), notes: make(map[string]string)}
}

func (s *metricSet) add(name string, v float64, unit, note string) {
	if _, dup := s.m[name]; !dup {
		s.order = append(s.order, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
	if note != "" {
		s.notes[name] = note
	}
}

// print writes the readout lines and then the result line.
func (s *metricSet) print(w io.Writer, g *gate) {
	for _, name := range s.order {
		m := s.m[name]
		fmt.Fprintf(w, "# %-28s %14.6g %-8s %s\n", name, m.Value, m.Unit, s.notes[name])
	}
	ratio := 0.0
	if g.attempted > 0 {
		ratio = float64(g.failed) / float64(g.attempted)
	}
	fmt.Fprintf(w, "# %-28s %14.6g %-8s (%d failed of %d attempted)\n", "fail_ratio", ratio, "ratio", g.failed, g.attempted)
	for _, e := range g.errs {
		fmt.Fprintf(w, "# FAIL %s\n", e)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{g.failed == 0 && g.attempted > 0, max(g.attempted, 1), g.failed, s.m}
	data, _ := json.Marshal(res) // plain structs of floats and strings always marshal
	fmt.Fprintln(w, string(data))
}

// gate is the correctness gate: every checked operation counts as
// attempted, every wrong, failed or refused one as failed.
type gate struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string // the first few failures, for the readout
}

// check records one operation's outcome and reports whether it passed.
func (g *gate) check(what string, err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if err == nil {
		return true
	}
	g.failed++
	if len(g.errs) < 10 {
		g.errs = append(g.errs, what+": "+err.Error())
	}
	return false
}

// fingerprint says what a result measured: the machine, the toolchain, the
// source and the workload's parameters.
type fingerprint struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Params     string  `json:"params"`
}

func newFingerprint(workload string, seed uint64, seconds float64, traced int) fingerprint {
	return fingerprint{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
		Source:     sourceHash("."),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
	}
}

func (fp fingerprint) print(w io.Writer) {
	data, _ := json.Marshal(fp)
	fmt.Fprintf(w, "# fingerprint %s\n", data)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build saw
// one; a checkout without version control falls back to "unknown", and the
// source hash identifies the code instead.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

// sourceHash hashes every .go, go.mod and go.sum file under root (paths
// and contents, in sorted order), skipping hidden and build directories.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the hash
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rssPeakMiB is the process's peak resident set size (VmHWM).
func rssPeakMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
