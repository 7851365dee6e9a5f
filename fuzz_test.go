package stint

import (
	"reflect"
	"testing"
)

// fuzzWideElems sizes the fuzz-only "wide" buffer: 128 KiB of words, so it
// straddles at least one 64 KiB shadow-page boundary and range accesses on
// it exercise the workers' local page splitting and shard filtering.
const fuzzWideElems = 32768

// fuzzAllocBufs allocates the equivalence suite's buffers plus the wide
// one. Only the fuzzer uses the wide buffer — the oracle-backed tests keep
// the small set so brute-force stays cheap.
func fuzzAllocBufs(r *Runner) ([]*Buffer, []int) {
	bufs, sizes := allocBufs(r)
	bufs = append(bufs, r.Arena().Alloc("wide", fuzzWideElems, 4))
	sizes = append(sizes, fuzzWideElems)
	return bufs, sizes
}

// FuzzAsyncAgainstSync decodes arbitrary bytes into a fork-join program
// and pipeline geometry — batch capacity, ring depth, a detection shard
// count, and a flags byte toggling the compact encoding and the summary-
// stamping stage — runs it once synchronously, once through the plain
// async pipeline, and (when the shard byte asks for it) twice sharded —
// once with batch summaries, once with them disabled — and requires
// identical racing-word sets, canonical race reports, strand
// counts, and (timing-normalized) stats. A further flags bit re-runs the
// mode matrix with per-page quiescing enabled and requires the quiesced
// reports to agree across modes too. Tiny batch capacities and ring
// depths force the batch-boundary edge cases: events split across batches,
// empty final batches, backpressure stalls, and drain while a strand's
// accesses are still buffered. Shard counts above one additionally force
// page-split routing and cross-worker merge.
func FuzzAsyncAgainstSync(f *testing.F) {
	f.Add([]byte{})
	// Geometry 1x1 (max handoffs), unsharded, racy spawn/store/store/sync.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// Range accesses split across 2-event batches, 2 shards.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00, 0x00, 0x20, 0x01, 0x06, 0x01, 0x00, 0x10, 0x00, 0x30, 0x02})
	// Drain mid-strand: spawn body never terminated, accesses buffered at
	// stream end.
	f.Add([]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x04, 0x02, 0x07, 0x03, 0x00, 0x01})
	// Deep nesting with interleaved syncs.
	f.Add([]byte{0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x01, 0x02, 0x01, 0x02, 0x01, 0x04, 0x02, 0x08, 0x02})
	// Cross-shard racy pair: two strands write the same 128 KiB span of the
	// wide buffer, so the racing pieces land on different shards.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// Worker-side split of one page-straddling access: a 16-byte range write
	// at wide index 13310 crosses the 64 KiB boundary at index 13312, so each
	// worker page-splits the event locally, keeps only its own piece, and the
	// hook-call adjustment (only the first piece's owner counts the original
	// call) must reconcile across two shards. Two parallel strands write the
	// same straddling range, so the race itself spans the boundary too.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// All-events-one-page skew: 4 shards but every access on one page, so a
	// single worker carries the whole load, the others skip-scan off the
	// batch summaries, and the summaries-off leg re-runs it with every
	// worker on the slow path.
	f.Add([]byte{0x00, 0x00, 0x04, 0x00, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// The same skew under the fixed 16-byte encoding (flags bit 0)...
	f.Add([]byte{0x00, 0x00, 0x04, 0x01, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// ...and with both forced stamping stages (flags bits 1-2).
	f.Add([]byte{0x00, 0x00, 0x04, 0x02, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	f.Add([]byte{0x00, 0x00, 0x04, 0x04, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// All-ones fallback: the two racing range writes span the full 128 KiB
	// wide buffer (> 2 pages), so AccessMask gives up and stamps MaskAll —
	// all 4 workers must take the full-scan path even though each owns only
	// a slice of the pages.
	f.Add([]byte{0x01, 0x01, 0x04, 0x00, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// Flags bit 3 is ignored (it selected a since-removed execution mode);
	// the seeds that set it stay as extra program shapes. The cross-shard
	// racy pair once more:
	f.Add([]byte{0x01, 0x01, 0x02, 0x08, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// A degenerate single-strand program: no spawns, so the whole stream
	// is the root strand's accesses.
	f.Add([]byte{0x00, 0x00, 0x01, 0x08, 0x00, 0x03, 0x00, 0x05, 0x04, 0x00, 0x06, 0x05, 0x00, 0x07})
	// Quiescing mid-batch (flags bit 4): the page-straddling racy range pair
	// again, now with a threshold-2 quiesce differential — the page under the
	// straddle retires while the range's other piece is still live, and the
	// sharded workers' local page splits must agree with sync on which piece
	// died.
	f.Add([]byte{0x01, 0x01, 0x02, 0x10, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// The same with repeated racy pairs, so the threshold actually trips.
	f.Add([]byte{0x01, 0x01, 0x02, 0x18, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// Cross-shard racy pair with quiescing: the racing span covers two full
	// pages, so both pages accumulate races and retire on different workers.
	f.Add([]byte{0x01, 0x01, 0x02, 0x10, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// A spawn-heavy body with nested children under one-event batches:
	// every access and structure event gets its own batch.
	f.Add([]byte{0x00, 0x00, 0x02, 0x08, 0x00, 0x04, 0x00, 0x00, 0x04, 0x00, 0x05, 0x01, 0x01, 0x02, 0x04, 0x00, 0x05, 0x02, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // keep individual executions fast
		}
		prog, batchEvents, ringDepth, shards, po := decodeFuzzProgram(data)

		type result struct {
			words   map[Addr]bool
			races   []Race
			strands int
			stats   Stats
		}
		// mode: -1 = synchronous, 0 = plain async, n > 0 = n-sharded async.
		// nosum disables the batch summaries, forcing every worker onto the
		// full-scan path.
		run := func(mode int, nosum bool) result {
			words := make(map[Addr]bool)
			opts := Options{
				Detector:              DetectorSTINT,
				DisableBatchSummaries: nosum,
				DisableCompactEvents:  po.nocompact,
				SummaryStamping:       po.stamp,
				OnRace: func(rc Race) {
					for a := rc.Addr &^ 3; a < rc.Addr+rc.Size; a += 4 {
						words[a] = true
					}
				},
			}
			if mode >= 0 {
				opts.Async = true
				opts.DetectShards = mode
			}
			r, err := NewRunner(opts)
			if err != nil {
				t.Fatal(err)
			}
			if mode >= 0 {
				r.asyncBatchEvents, r.asyncRingDepth = batchEvents, ringDepth
			}
			bufs, _ := fuzzAllocBufs(r)
			rep, err := r.Run(func(task *Task) { runActs(task, bufs, prog) })
			if err != nil {
				t.Fatal(err)
			}
			return result{words: words, races: rep.Races, strands: rep.Strands, stats: normStats(rep.Stats)}
		}

		sync := run(-1, false)
		check := func(name string, got result) {
			if got.strands != sync.strands {
				t.Fatalf("strands: %s %d, sync %d (batch=%d depth=%d shards=%d)\nprogram: %+v",
					name, got.strands, sync.strands, batchEvents, ringDepth, shards, prog)
			}
			if got.stats != sync.stats {
				t.Fatalf("stats diverge (%s, batch=%d depth=%d shards=%d)\n%s: %+v\nsync:  %+v\nprogram: %+v",
					name, batchEvents, ringDepth, shards, name, got.stats, sync.stats, prog)
			}
			if !reflect.DeepEqual(got.races, sync.races) {
				t.Fatalf("canonical races diverge (%s, batch=%d depth=%d shards=%d)\n%s: %v\nsync:  %v\nprogram: %+v",
					name, batchEvents, ringDepth, shards, name, got.races, sync.races, prog)
			}
			if len(got.words) != len(sync.words) {
				t.Fatalf("racing words: %s %d, sync %d\nprogram: %+v", name, len(got.words), len(sync.words), prog)
			}
			for w := range sync.words {
				if !got.words[w] {
					t.Fatalf("%s missed racing word %#x\nprogram: %+v", name, w, prog)
				}
			}
		}
		check("async", run(0, false))
		if shards > 0 {
			check("sharded", run(shards, false))
			// Summaries are a pure scan elision: disabling them must not
			// change a byte of the normalized result.
			check("sharded-nosum", run(shards, true))
		}
		if po.quiesce {
			// Quiescing differential: with a threshold of 2, pages retire
			// their history mid-run — possibly mid-batch, possibly under a
			// page-straddling range. The quiesce decision is page-local and
			// taken at a deterministic point in the serial order, so races,
			// racing words, strands, and the pages-quiesced count must be
			// identical across every mode. Full stats are NOT compared: the
			// producer-side drops legitimately elide hook calls the
			// synchronous run counts.
			qrun := func(mode int) result {
				words := make(map[Addr]bool)
				opts := Options{
					Detector:             DetectorSTINT,
					PageQuiesceThreshold: 2,
					DisableCompactEvents: po.nocompact,
					OnRace: func(rc Race) {
						for a := rc.Addr &^ 3; a < rc.Addr+rc.Size; a += 4 {
							words[a] = true
						}
					},
				}
				if mode >= 0 {
					opts.Async = true
					opts.DetectShards = mode
				}
				r, err := NewRunner(opts)
				if err != nil {
					t.Fatal(err)
				}
				if mode >= 0 {
					r.asyncBatchEvents, r.asyncRingDepth = batchEvents, ringDepth
				}
				bufs, _ := fuzzAllocBufs(r)
				rep, err := r.Run(func(task *Task) { runActs(task, bufs, prog) })
				if err != nil {
					t.Fatal(err)
				}
				st := Stats{PagesQuiesced: rep.Stats.PagesQuiesced}
				return result{words: words, races: rep.Races, strands: rep.Strands, stats: st}
			}
			qsync := qrun(-1)
			qcheck := func(name string, got result) {
				if got.strands != qsync.strands || got.stats.PagesQuiesced != qsync.stats.PagesQuiesced {
					t.Fatalf("%s: strands/quiesced %d/%d, sync %d/%d (batch=%d depth=%d shards=%d)\nprogram: %+v",
						name, got.strands, got.stats.PagesQuiesced, qsync.strands, qsync.stats.PagesQuiesced,
						batchEvents, ringDepth, shards, prog)
				}
				if !reflect.DeepEqual(got.races, qsync.races) {
					t.Fatalf("quiesced races diverge (%s, batch=%d depth=%d shards=%d)\n%s: %v\nsync:  %v\nprogram: %+v",
						name, batchEvents, ringDepth, shards, name, got.races, qsync.races, prog)
				}
				if !reflect.DeepEqual(got.words, qsync.words) {
					t.Fatalf("quiesced racing words diverge (%s): %d vs sync %d\nprogram: %+v",
						name, len(got.words), len(qsync.words), prog)
				}
			}
			qcheck("quiesce-async", qrun(0))
			if shards > 0 {
				qcheck("quiesce-sharded", qrun(shards))
			}
		}
	})
}

// FuzzSyncAgainstOracle decodes arbitrary bytes into a fork-join program
// and requires every runtime-coalescing detector to report exactly the
// brute-force oracle's racing words. Each detector runs the program twice
// on one Runner: the second, reused run (Run auto-resets) must reproduce
// the first, fresh run's report byte for byte — races, counts, strands,
// and (timing-normalized) stats. When the header asks for it, a third run
// with per-page quiescing at threshold 2 must report a subset of the
// oracle's words. It shares FuzzAsyncAgainstSync's input decoder and seed
// programs.
func FuzzSyncAgainstOracle(f *testing.F) {
	f.Add([]byte{})
	// A racy spawn/store/store/sync.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// Overlapping range accesses in parallel strands.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00, 0x00, 0x20, 0x01, 0x06, 0x01, 0x00, 0x10, 0x00, 0x30, 0x02})
	// A spawn body that is never terminated: the run ends mid-strand.
	f.Add([]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x04, 0x02, 0x07, 0x03, 0x00, 0x01})
	// Deep nesting with interleaved syncs.
	f.Add([]byte{0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x01, 0x02, 0x01, 0x02, 0x01, 0x04, 0x02, 0x08, 0x02})
	// Two strands write the same 128 KiB span of the wide buffer, so the
	// race covers two full pages.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// Two parallel strands write the same 16-byte range at wide index
	// 13310, which crosses the 64 KiB boundary at index 13312, so the race
	// itself spans the boundary.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// Every access on one page; the header bytes other than the quiesce
	// bit do not change the program.
	f.Add([]byte{0x00, 0x00, 0x04, 0x00, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	f.Add([]byte{0x00, 0x00, 0x04, 0x01, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	f.Add([]byte{0x00, 0x00, 0x04, 0x02, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	f.Add([]byte{0x00, 0x00, 0x04, 0x04, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// Racing range writes spanning the full wide buffer (more than two
	// pages).
	f.Add([]byte{0x01, 0x01, 0x04, 0x00, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	f.Add([]byte{0x01, 0x01, 0x02, 0x08, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// A single-strand program: no spawns.
	f.Add([]byte{0x00, 0x00, 0x01, 0x08, 0x00, 0x03, 0x00, 0x05, 0x04, 0x00, 0x06, 0x05, 0x00, 0x07})
	// Quiescing (header bit 4) under the page-straddling racy range pair:
	// the page under the straddle retires while the range's other piece
	// is still live.
	f.Add([]byte{0x01, 0x01, 0x02, 0x10, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// The same with repeated racy pairs, so the threshold actually trips.
	f.Add([]byte{0x01, 0x01, 0x02, 0x18, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// Quiescing a racing span that covers two full pages.
	f.Add([]byte{0x01, 0x01, 0x02, 0x10, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// A spawn-heavy body with nested children.
	f.Add([]byte{0x00, 0x00, 0x02, 0x08, 0x00, 0x04, 0x00, 0x00, 0x04, 0x00, 0x05, 0x01, 0x01, 0x02, 0x04, 0x00, 0x05, 0x02, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // keep individual executions fast
		}
		// Only the program and the quiesce flag matter here: the pipeline
		// geometry bytes select async legs this target does not run.
		prog, _, _, _, po := decodeFuzzProgram(data)
		want := oracleWords(t, fuzzAllocBufs, prog)
		for _, d := range shardTestDetectors {
			words := make(map[Addr]bool)
			r, err := NewRunner(Options{
				Detector:         d,
				MaxRacesRecorded: 1 << 20,
				OnRace:           func(rc Race) { addRaceWords(words, rc) },
			})
			if err != nil {
				t.Fatal(err)
			}
			bufs, _ := fuzzAllocBufs(r)
			run := func() *Report {
				clear(words)
				rep, err := r.Run(func(task *Task) { runActs(task, bufs, prog) })
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			fresh := run()
			if !reflect.DeepEqual(words, want) {
				t.Fatalf("%v: %d racing words, oracle %d (%s)\nprogram: %+v",
					d, len(words), len(want), wordSetDiff(words, want), prog)
			}
			reused := run()
			if reused.RaceCount != fresh.RaceCount || reused.Strands != fresh.Strands ||
				!reflect.DeepEqual(reused.Races, fresh.Races) ||
				normStats(reused.Stats) != normStats(fresh.Stats) {
				t.Fatalf("%v: reused Runner diverges from fresh\nreused: %d races, %d strands, %+v\nfresh:  %d races, %d strands, %+v\nprogram: %+v",
					d, reused.RaceCount, reused.Strands, normStats(reused.Stats),
					fresh.RaceCount, fresh.Strands, normStats(fresh.Stats), prog)
			}
			if !reflect.DeepEqual(words, want) {
				t.Fatalf("%v: reused run reports %d racing words, oracle %d (%s)\nprogram: %+v",
					d, len(words), len(want), wordSetDiff(words, want), prog)
			}
			if po.quiesce {
				got := racingWords(t, Options{Detector: d, PageQuiesceThreshold: 2}, fuzzAllocBufs, prog)
				for w := range got {
					if !want[w] {
						t.Fatalf("%v quiesced: word %#x is race-free per the oracle\nprogram: %+v", d, w, prog)
					}
				}
			}
		}
	})
}

// decodeFuzzProgram turns raw bytes into (program, batchEvents, ringDepth,
// shards, pipeline flags). The first four bytes pick a tiny pipeline
// geometry — shards of zero means "compare the plain async pipeline only";
// the flags byte toggles the fixed encoding (bit 0), picks the summary-
// stamping stage (bits 1-2), and adds the per-page quiescing differential
// legs (bit 4); bit 3 is ignored — and the rest is a
// byte-code for act programs.
// Every input decodes to a valid program — the fuzzer explores program
// shapes, not parser rejections.
func decodeFuzzProgram(data []byte) ([]act, int, int, int, pipeOpts) {
	batchEvents, ringDepth, shards := 1, 1, 0
	var po pipeOpts
	if len(data) > 0 {
		batchEvents = int(data[0]%16) + 1
		data = data[1:]
	}
	if len(data) > 0 {
		ringDepth = int(data[0]%4) + 1
		data = data[1:]
	}
	if len(data) > 0 {
		shards = int(data[0] % 5)
		data = data[1:]
	}
	if len(data) > 0 {
		po.nocompact = data[0]&1 != 0
		po.stamp = SummaryStamping(((data[0] >> 1) & 3) % 3)
		po.quiesce = data[0]&16 != 0
		data = data[1:]
	}
	pos := 0
	next := func() (byte, bool) {
		if pos >= len(data) {
			return 0, false
		}
		b := data[pos]
		pos++
		return b, true
	}
	// sizes must match fuzzAllocBufs: the equivalence suite's buffers plus
	// the multi-page wide buffer. Range acts use 16-bit index and count so
	// they can reach — and straddle — the wide buffer's page boundaries.
	sizes := make([]int, len(bufSpecs), len(bufSpecs)+1)
	for i, s := range bufSpecs {
		sizes[i] = s.elems
	}
	sizes = append(sizes, fuzzWideElems)
	var parse func(depth int) []act
	parse = func(depth int) []act {
		var acts []act
		for len(acts) < 64 {
			b, ok := next()
			if !ok {
				return acts // unterminated bodies auto-close: drain mid-strand
			}
			switch b % 8 {
			case 0: // spawn with nested body
				if depth >= 6 {
					continue
				}
				acts = append(acts, act{kind: 'S', body: parse(depth + 1)})
			case 1: // end of this body
				return acts
			case 2: // sync
				acts = append(acts, act{kind: 'Y'})
			case 3, 4: // word load/store
				bi, _ := next()
				ii, _ := next()
				buf := int(bi) % len(sizes)
				acts = append(acts, act{
					kind: map[byte]byte{3: 'l', 4: 's'}[b%8],
					buf:  buf, idx: int(ii) % sizes[buf],
				})
			case 5, 6: // range load/store (16-bit index and count)
				bi, _ := next()
				i1, _ := next()
				i2, _ := next()
				n1, _ := next()
				n2, _ := next()
				buf := int(bi) % len(sizes)
				idx := (int(i1)<<8 | int(i2)) % sizes[buf]
				acts = append(acts, act{
					kind: map[byte]byte{5: 'L', 6: 'W'}[b%8],
					buf:  buf, idx: idx, n: (int(n1)<<8|int(n2))%(sizes[buf]-idx) + 1,
				})
			case 7: // no-op (reserved)
			}
		}
		return acts
	}
	return parse(0), batchEvents, ringDepth, shards, po
}
