package evstream

import (
	"math/rand"
	"testing"

	"stint/internal/mem"
)

func collectSplit(ev Event, pageBits uint) (pages []uint64, pieces []Event) {
	PageSplit(ev, pageBits, func(page uint64, piece Event) {
		pages = append(pages, page)
		pieces = append(pieces, piece)
	})
	return
}

func TestPageSplitWithinPagePassesThrough(t *testing.T) {
	ev := Access(OpRead, 0x1000, 64)
	pages, pieces := collectSplit(ev, 16)
	if len(pieces) != 1 || pages[0] != 0 || pieces[0] != ev {
		t.Fatalf("got pages %v pieces %v", pages, pieces)
	}
}

func TestPageSplitStraddle(t *testing.T) {
	const pageBytes = 1 << 16
	ev := Access(OpWrite, pageBytes-8, 16)
	pages, pieces := collectSplit(ev, 16)
	if len(pieces) != 2 {
		t.Fatalf("want 2 pieces, got %v", pieces)
	}
	if pages[0] != 0 || pieces[0].Addr() != pageBytes-8 || pieces[0].Size() != 8 {
		t.Fatalf("piece 0 wrong: page %d addr %#x size %d", pages[0], pieces[0].Addr(), pieces[0].Size())
	}
	if pages[1] != 1 || pieces[1].Addr() != pageBytes || pieces[1].Size() != 8 {
		t.Fatalf("piece 1 wrong: page %d addr %#x size %d", pages[1], pieces[1].Addr(), pieces[1].Size())
	}
}

func TestPageSplitRangeBecomesAccesses(t *testing.T) {
	const pageBytes = 1 << 16
	// 3 full pages starting mid-page: 4 pieces, converted to OpWrite.
	ev := Range(OpWriteRange, pageBytes/2, 3*pageBytes/8, 8)
	pages, pieces := collectSplit(ev, 16)
	if len(pieces) != 4 {
		t.Fatalf("want 4 pieces, got %d: %v", len(pieces), pieces)
	}
	var total uint64
	for i, p := range pieces {
		if p.EvOp() != OpWrite {
			t.Fatalf("piece %d op = %d, want OpWrite", i, p.EvOp())
		}
		if p.Addr()>>16 != pages[i] {
			t.Fatalf("piece %d addr %#x not on page %d", i, p.Addr(), pages[i])
		}
		if p.Addr()>>16 != (p.Addr()+p.Size()-1)>>16 {
			t.Fatalf("piece %d crosses a page: addr %#x size %d", i, p.Addr(), p.Size())
		}
		total += p.Size()
	}
	if total != 3*pageBytes {
		t.Fatalf("pieces cover %d bytes, want %d", total, 3*pageBytes)
	}
}

func TestPageSplitZeroSize(t *testing.T) {
	pages, pieces := collectSplit(Access(OpRead, 3<<16|0x40, 0), 16)
	if len(pieces) != 1 || pages[0] != 3 || pieces[0].Size() != 0 {
		t.Fatalf("zero-size: pages %v pieces %v", pages, pieces)
	}
}

func TestPageSplitRandomCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		addr := rng.Uint64() % (1 << 20)
		size := uint64(rng.Intn(1 << 18))
		var ev Event
		if i%2 == 0 {
			ev = Access(OpRead, addr, size)
		} else {
			elem := uint64(rng.Intn(8) + 1)
			ev = Range(OpReadRange, addr, int(size/elem), elem)
			size = (size / elem) * elem
		}
		next := addr
		var total uint64
		PageSplit(ev, 16, func(page uint64, piece Event) {
			if size > 0 && piece.Addr() != next {
				t.Fatalf("pieces not contiguous: addr %#x, want %#x", piece.Addr(), next)
			}
			if piece.Addr()>>16 != page {
				t.Fatalf("piece page mismatch")
			}
			next = piece.Addr() + piece.Size()
			total += piece.Size()
		})
		if total != size {
			t.Fatalf("pieces cover %d bytes, want %d", total, size)
		}
	}
}

// TestPageSplitShardPartition checks the worker-side filtering invariant:
// for any access and shard count, every piece lands on exactly one shard,
// and exactly one worker owns the first piece (the one accounting for the
// original hook call).
func TestPageSplitShardPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(4)
		ev := Access(OpRead, rng.Uint64()%(1<<20), uint64(rng.Intn(1<<18)))
		var pieces, kept, owners int
		PageSplit(ev, 16, func(page uint64, piece Event) {
			pieces++
			s := PickShard(page, n)
			if s < 0 || s >= n {
				t.Fatalf("PickShard out of range: %d", s)
			}
		})
		for w := 0; w < n; w++ {
			first := true
			PageSplit(ev, 16, func(page uint64, piece Event) {
				mine := PickShard(page, n) == w
				if first && mine {
					owners++
				}
				first = false
				if mine {
					kept++
				}
			})
		}
		if kept != pieces {
			t.Fatalf("trial %d: workers kept %d pieces of %d", trial, kept, pieces)
		}
		if owners != 1 {
			t.Fatalf("trial %d: %d workers claimed the first piece", trial, owners)
		}
	}
}

// TestPageSplitRejectsWrappingSpan pins the overflow guards: a span that
// wraps the address space must panic with a clear message instead of
// silently emitting pieces on bogus low pages, and a hand-packed range
// whose count*elem product overflows uint64 must be caught by the multiply
// guard rather than mis-split.
func TestPageSplitRejectsWrappingSpan(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("access wrapping the address space", func() {
		PageSplit(Access(OpRead, ^uint64(0)-7, 16), 16, func(uint64, Event) {})
	})
	expectPanic("range wrapping the address space", func() {
		// count*elem itself cannot overflow uint64 through Range's checked
		// fields (32-bit count x 24-bit elem tops out at 56 bits), so the
		// reachable failure is the span wrapping past the address space.
		PageSplit(Range(OpReadRange, ^uint64(0)-1024, mem.MaxRangeCount, 1024), 16, func(uint64, Event) {})
	})
	// The boundary product (max count x max elem) fits in 56 bits and must
	// split fine from address 0 — the guard must not fire on legal input.
	n := 0
	PageSplit(Range(OpReadRange, 0, 1<<20, 8), 16, func(uint64, Event) { n++ })
	if n != (1<<20)*8/(1<<16) {
		t.Fatalf("legal wide range split into %d pieces", n)
	}
}

func TestPickShardBoundsAndSpread(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		counts := make([]int, n)
		for page := uint64(0); page < 4096; page++ {
			s := PickShard(page, n)
			if s < 0 || s >= n {
				t.Fatalf("PickShard(%d, %d) = %d out of range", page, n, s)
			}
			counts[s]++
		}
		for s, c := range counts {
			if n > 1 && (c < 4096/n/2 || c > 4096/n*2) {
				t.Fatalf("n=%d: shard %d got %d of 4096 pages (badly skewed): %v", n, s, c, counts)
			}
		}
	}
}
