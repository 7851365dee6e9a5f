package stint

import (
	"reflect"
	"testing"
)

// fuzzWideElems sizes the fuzz-only "wide" buffer: 128 KiB of words, so it
// straddles at least one 64 KiB shadow-page boundary and range accesses on
// it exercise the engines' per-page history and page-local quiescing.
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
// and pipeline geometry — batch capacity, ring depth, and a flags byte
// toggling the compact encoding — runs it once synchronously and once
// through the async pipeline, and requires identical racing-word sets,
// canonical race reports, strand counts, and (timing-normalized) stats. A
// further flags bit re-runs both modes with per-page quiescing enabled and
// requires the quiesced reports to agree too. Tiny batch capacities and
// ring depths force the batch-boundary edge cases: events split across
// batches, empty final batches, backpressure stalls, and drain while a
// strand's accesses are still buffered.
func FuzzAsyncAgainstSync(f *testing.F) {
	f.Add([]byte{})
	// Geometry 1x1 (max handoffs), racy spawn/store/store/sync.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// Range accesses split across 2-event batches.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00, 0x00, 0x20, 0x01, 0x06, 0x01, 0x00, 0x10, 0x00, 0x30, 0x02})
	// Drain mid-strand: spawn body never terminated, accesses buffered at
	// stream end.
	f.Add([]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x04, 0x02, 0x07, 0x03, 0x00, 0x01})
	// Deep nesting with interleaved syncs.
	f.Add([]byte{0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x01, 0x02, 0x01, 0x02, 0x01, 0x04, 0x02, 0x08, 0x02})
	// Two strands write the same 128 KiB span of the wide buffer, so the
	// race covers two full pages.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// One page-straddling access: a 16-byte range write at wide index 13310
	// crosses the 64 KiB boundary at index 13312. Two parallel strands write
	// the same straddling range, so the race itself spans the boundary too.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// Every access on one page. The third header byte and flags bits 1-3
	// are ignored (they selected since-removed execution modes), so these
	// seeds differ only in the encoding bit.
	f.Add([]byte{0x00, 0x00, 0x04, 0x00, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// The same under the fixed 16-byte encoding (flags bit 0)...
	f.Add([]byte{0x00, 0x00, 0x04, 0x01, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// ...and with the ignored flags bits 1-2 set.
	f.Add([]byte{0x00, 0x00, 0x04, 0x02, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	f.Add([]byte{0x00, 0x00, 0x04, 0x04, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// Racing range writes spanning the full 128 KiB wide buffer (more than
	// two pages).
	f.Add([]byte{0x01, 0x01, 0x04, 0x00, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// The two-page racy pair once more, with the ignored flags bit 3 set:
	f.Add([]byte{0x01, 0x01, 0x02, 0x08, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// A degenerate single-strand program: no spawns, so the whole stream
	// is the root strand's accesses.
	f.Add([]byte{0x00, 0x00, 0x01, 0x08, 0x00, 0x03, 0x00, 0x05, 0x04, 0x00, 0x06, 0x05, 0x00, 0x07})
	// Quiescing mid-batch (flags bit 4): the page-straddling racy range pair
	// again, now with a threshold-2 quiesce differential — the page under the
	// straddle retires while the range's other piece is still live, and the
	// async run must agree with sync on which piece died.
	f.Add([]byte{0x01, 0x01, 0x02, 0x10, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// The same with repeated racy pairs, so the threshold actually trips.
	f.Add([]byte{0x01, 0x01, 0x02, 0x18, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// The two-page racy pair with quiescing: both pages accumulate races
	// and retire.
	f.Add([]byte{0x01, 0x01, 0x02, 0x10, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// A spawn-heavy body with nested children under one-event batches:
	// every access and structure event gets its own batch.
	f.Add([]byte{0x00, 0x00, 0x02, 0x08, 0x00, 0x04, 0x00, 0x00, 0x04, 0x00, 0x05, 0x01, 0x01, 0x02, 0x04, 0x00, 0x05, 0x02, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // keep individual executions fast
		}
		prog, batchEvents, ringDepth, po := decodeFuzzProgram(data)

		type result struct {
			words   map[Addr]bool
			races   []Race
			strands int
			stats   Stats
		}
		// run executes prog synchronously or through the async pipeline,
		// with per-page quiescing at threshold (0 disables it).
		run := func(async bool, threshold int) result {
			words := make(map[Addr]bool)
			r, err := NewRunner(Options{
				Detector:             DetectorSTINT,
				Async:                async,
				PageQuiesceThreshold: threshold,
				DisableCompactEvents: po.nocompact,
				OnRace:               func(rc Race) { addRaceWords(words, rc) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if async {
				r.asyncBatchEvents, r.asyncRingDepth = batchEvents, ringDepth
			}
			bufs, _ := fuzzAllocBufs(r)
			rep, err := r.Run(func(task *Task) { runActs(task, bufs, prog) })
			if err != nil {
				t.Fatal(err)
			}
			return result{words: words, races: rep.Races, strands: rep.Strands, stats: normStats(rep.Stats)}
		}

		sync, got := run(false, 0), run(true, 0)
		if got.strands != sync.strands {
			t.Fatalf("strands: async %d, sync %d (batch=%d depth=%d)\nprogram: %+v",
				got.strands, sync.strands, batchEvents, ringDepth, prog)
		}
		if got.stats != sync.stats {
			t.Fatalf("stats diverge (batch=%d depth=%d)\nasync: %+v\nsync:  %+v\nprogram: %+v",
				batchEvents, ringDepth, got.stats, sync.stats, prog)
		}
		if !reflect.DeepEqual(got.races, sync.races) {
			t.Fatalf("canonical races diverge (batch=%d depth=%d)\nasync: %v\nsync:  %v\nprogram: %+v",
				batchEvents, ringDepth, got.races, sync.races, prog)
		}
		if !reflect.DeepEqual(got.words, sync.words) {
			t.Fatalf("racing words: async %d, sync %d (%s)\nprogram: %+v",
				len(got.words), len(sync.words), wordSetDiff(got.words, sync.words), prog)
		}
		if po.quiesce {
			// Quiescing differential: with a threshold of 2, pages retire
			// their history mid-run — possibly mid-batch, possibly under a
			// page-straddling range. The quiesce decision is page-local and
			// taken at a deterministic point in the serial order, so races,
			// racing words, strands, and the pages-quiesced count must be
			// identical in both modes. Full stats are NOT compared: the
			// producer-side drops legitimately elide hook calls the
			// synchronous run counts.
			qsync, qgot := run(false, 2), run(true, 2)
			if qgot.strands != qsync.strands || qgot.stats.PagesQuiesced != qsync.stats.PagesQuiesced {
				t.Fatalf("quiesced strands/pages %d/%d, sync %d/%d (batch=%d depth=%d)\nprogram: %+v",
					qgot.strands, qgot.stats.PagesQuiesced, qsync.strands, qsync.stats.PagesQuiesced,
					batchEvents, ringDepth, prog)
			}
			if !reflect.DeepEqual(qgot.races, qsync.races) {
				t.Fatalf("quiesced races diverge (batch=%d depth=%d)\nasync: %v\nsync:  %v\nprogram: %+v",
					batchEvents, ringDepth, qgot.races, qsync.races, prog)
			}
			if !reflect.DeepEqual(qgot.words, qsync.words) {
				t.Fatalf("quiesced racing words diverge: async %d vs sync %d\nprogram: %+v",
					len(qgot.words), len(qsync.words), prog)
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
		prog, _, _, po := decodeFuzzProgram(data)
		want := oracleWords(t, fuzzAllocBufs, prog)
		for _, d := range coalescingDetectors {
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

// pipeOpts holds the fuzz header's flags: the fixed event encoding and the
// per-page quiescing differential legs.
type pipeOpts struct {
	nocompact bool
	quiesce   bool
}

// decodeFuzzProgram turns raw bytes into (program, batchEvents, ringDepth,
// pipeline flags), and every input decodes to a valid program — the fuzzer
// explores program shapes, not parser rejections. The four header bytes are:
//
//  0. batch capacity (1..16 events);
//  1. ring depth (1..4 batches);
//  2. ignored — it was a detection shard count, an execution mode since
//     removed; it is still consumed so the seed corpus decodes to the same
//     programs;
//  3. flags: bit 0 selects the fixed 16-byte encoding, bit 4 adds the
//     per-page quiescing differential legs; bits 1-3 are ignored (they
//     selected summary-stamping stages and an execution mode since
//     removed).
//
// The rest is a byte-code for act programs.
func decodeFuzzProgram(data []byte) ([]act, int, int, pipeOpts) {
	batchEvents, ringDepth := 1, 1
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
		data = data[1:] // the ignored former shard count
	}
	if len(data) > 0 {
		po.nocompact = data[0]&1 != 0
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
	return parse(0), batchEvents, ringDepth, po
}
