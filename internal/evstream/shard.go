package evstream

// PageSplit decomposes an access or range event into page-contained access
// events, invoking emit with the page index and piece for each. Events
// already inside one page pass through unchanged (ranges are still
// converted to plain access events — for runtime-coalescing detectors the
// two hook kinds update the same bits). A zero-sized access is emitted
// once, on its base address's page, so a per-page consumer still accounts
// for the hook call. It returns the number of pieces emitted.
//
// PageSplit and PickShard were the routing half of the removed sharded
// detection pipeline and have no caller in the runner; they stay, with
// their unit tests, until the evstream package itself is retired (see
// ROADMAP.md, "Prove or prune the pipelined execution modes").
func PageSplit(ev Event, pageBits uint, emit func(page uint64, piece Event)) int {
	op := ev.EvOp()
	addr := ev.Addr()
	var size uint64
	switch op {
	case OpRead, OpWrite:
		size = ev.Size()
	case OpReadRange:
		op, size = OpRead, rangeBytes(ev)
	case OpWriteRange:
		op, size = OpWrite, rangeBytes(ev)
	default:
		panic("evstream: PageSplit on a non-access event")
	}
	if size > 1 && addr+size-1 < addr {
		// A wrapping span would emit pieces on bogus low pages; the hook
		// layer rejects such ranges, so hitting this means a corrupt event.
		panic("evstream: PageSplit range wraps the address space")
	}
	pageBytes := uint64(1) << pageBits
	if size == 0 {
		emit(addr>>pageBits, Access(op, addr, 0))
		return 1
	}
	pieces := 0
	for size > 0 {
		page := addr >> pageBits
		n := pageBytes - addr&(pageBytes-1) // bytes left on this page
		if n > size {
			n = size
		}
		emit(page, Access(op, addr, n))
		addr += n
		size -= n
		pieces++
	}
	return pieces
}

// rangeBytes returns count*elem for a range event, panicking if the
// product overflows uint64. Range's encode-time field checks already cap
// count below 2^32 and elem below 2^24, so the product fits in 56 bits;
// the guard catches events that bypassed Range (hand-packed or corrupted)
// before a silently truncated size mis-splits the range.
func rangeBytes(ev Event) uint64 {
	count, elem := uint64(ev.Count()), ev.Elem()
	size := count * elem
	if elem != 0 && size/elem != count {
		panic("evstream: range count*elem overflows uint64")
	}
	return size
}

// PickShard maps a page index to one of n shards with a Fibonacci
// multiplicative hash, so that consecutive pages spread across shards
// instead of striping with the address layout.
func PickShard(page uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int((page * 0x9E3779B97F4A7C15 >> 33) % uint64(n))
}
