package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"stint"
	"stint/trace"
)

// The serve-ingest mix: mixSize synthetic fork-join traces. One in
// mixTailEvery is a large tail trace. The rest are small, a few hundred to
// a few thousand words, the size at which HTTP, admission, Runner reset and
// decode are over half the per-trace cost; one in mixRacyEvery traces, all
// of them small, carries a planted race.
const (
	mixSize        = 256
	mixRacyEvery   = 4
	mixTailEvery   = 64
	smallWordsMin  = 300
	smallWordsMax  = 3000
	tailWords      = 1 << 14
	leafWordsLimit = 256
	wordBytes      = 8
	sendRounds     = 256
)

// mixTrace is one generated trace.
type mixTrace struct {
	data   []byte
	racy   bool   // the generator planted a race
	tail   bool   // one of the large tail traces
	words  int    // words the program's leaves write
	events uint64 // events the recorder wrote
}

// countingTracer counts the events it forwards to a trace.Recorder.
type countingTracer struct {
	rec    *trace.Recorder
	events uint64
}

func (c *countingTracer) Spawn()   { c.events++; c.rec.Spawn() }
func (c *countingTracer) Restore() { c.events++; c.rec.Restore() }
func (c *countingTracer) Sync()    { c.events++; c.rec.Sync() }
func (c *countingTracer) Read(a stint.Addr, size uint64) {
	c.events++
	c.rec.Read(a, size)
}
func (c *countingTracer) Write(a stint.Addr, size uint64) {
	c.events++
	c.rec.Write(a, size)
}
func (c *countingTracer) ReadRange(a stint.Addr, n int, elem uint64) {
	c.events++
	c.rec.ReadRange(a, n, elem)
}
func (c *countingTracer) WriteRange(a stint.Addr, n int, elem uint64) {
	c.events++
	c.rec.WriteRange(a, n, elem)
}

// record runs a program serially with detection off and returns its trace
// and the number of events in it. prepare sets the program up on the
// recording Runner and returns its body.
func record(prepare func(r *stint.Runner) stint.TaskFunc) ([]byte, uint64, error) {
	var buf bytes.Buffer
	ct := &countingTracer{rec: trace.NewRecorder(&buf)}
	r, err := stint.NewRunner(stint.Options{Tracer: ct})
	if err != nil {
		return nil, 0, err
	}
	if _, err := r.Run(prepare(r)); err != nil {
		return nil, 0, err
	}
	if err := ct.rec.Flush(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), ct.events, nil
}

// genMix generates n traces from seed. Exactly n/mixTailEvery are tail
// traces and n/mixRacyEvery of the others are racy, at seeded positions.
// The small traces' sizes are evenly spread over [smallWordsMin,
// smallWordsMax] in seeded order, and each small trace's shape comes from
// its own seeded stream. The tail traces do not depend on the seed, so the
// mix's total work and its largest traces stay the same from seed to seed
// while its contents and order change.
func genMix(seed uint64, n int) ([]mixTrace, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	perm := rng.Perm(n)
	nTail := n / mixTailEvery
	small := perm[nTail:]
	sizes := rng.Perm(len(small))
	mix := make([]mixTrace, n)
	for _, i := range perm[:nTail] {
		mix[i].tail = true
		mix[i].words = tailWords
	}
	for j, i := range small {
		mix[i].racy = j < n/mixRacyEvery
		mix[i].words = smallWordsMin + sizes[j]*(smallWordsMax-smallWordsMin)/max(len(small)-1, 1)
	}
	tails := uint64(0)
	for i := range mix {
		m := &mix[i]
		stream := rand.NewPCG(seed, uint64(i)+1)
		if m.tail {
			tails++
			stream = rand.NewPCG(0, tails) // the same tail traces for every seed
		}
		g := &progGen{rng: rand.New(stream), next: 1 << 20}
		data, events, err := record(func(*stint.Runner) stint.TaskFunc {
			return func(t *stint.Task) { g.root(t, m.words, m.racy) }
		})
		if err != nil {
			return nil, fmt.Errorf("generating trace %d: %w", i, err)
		}
		m.data, m.events = data, events
	}
	return mix, nil
}

// sendOrder is the seeded order in which the load generator sends the
// mix: sendRounds independent permutations back to back, so every trace is
// sent equally often but which traces follow each other changes all the
// time rather than repeating one cycle.
func sendOrder(seed uint64, n int) []int {
	rng := rand.New(rand.NewPCG(seed, 0x0de5))
	order := make([]int, 0, sendRounds*n)
	for i := 0; i < sendRounds; i++ {
		order = append(order, rng.Perm(n)...)
	}
	return order
}

// progGen emits one synthetic fork-join program. Leaves read a shared
// input region the root wrote before spawning and write a fresh output
// region of their own; a parent reads its children's outputs after the
// sync. That program is race-free by construction. A racy one adds a single
// word that the root's first two children, which run logically in
// parallel, both touch.
type progGen struct {
	rng     *rand.Rand
	next    stint.Addr // bump allocator over a private address space
	in      stint.Addr // the shared input region
	inWords int
}

func (g *progGen) alloc(words int) stint.Addr {
	a := g.next
	g.next += stint.Addr(words * wordBytes)
	return a
}

func (g *progGen) root(t *stint.Task, words int, racy bool) {
	g.inWords = min(words, 1024)
	g.in = g.alloc(g.inWords)
	t.StoreRangeAt(g.in, g.inWords, wordBytes)
	if !racy {
		g.node(t, words, 0)
		return
	}
	shared := g.alloc(1)
	k := 2 + g.rng.IntN(3)
	budget := words / k
	t.Spawn(func(c *stint.Task) {
		g.node(c, budget, 1)
		c.StoreAt(shared, wordBytes)
	})
	readFirst := g.rng.IntN(2) == 0
	t.Spawn(func(c *stint.Task) {
		if readFirst {
			c.LoadAt(shared, wordBytes)
		} else {
			c.StoreAt(shared, wordBytes)
		}
		g.node(c, budget, 1)
	})
	for i := 2; i < k; i++ {
		b := budget
		if i == k-1 {
			b = words - budget*(k-1)
		}
		t.Spawn(func(c *stint.Task) { g.node(c, b, 1) })
	}
	t.Sync()
}

// node runs a subtree that writes words output words and returns where.
func (g *progGen) node(t *stint.Task, words, depth int) (stint.Addr, int) {
	if words <= leafWordsLimit || depth >= 6 {
		return g.leaf(t, words)
	}
	k := 2 + g.rng.IntN(3)
	outs := make([]stint.Addr, k)
	sizes := make([]int, k)
	for i := 0; i < k; i++ {
		b := words / k
		if i == k-1 {
			b = words - (words/k)*(k-1)
		}
		t.Spawn(func(c *stint.Task) { outs[i], sizes[i] = g.node(c, b, depth+1) })
	}
	t.Sync()
	for i := range outs {
		t.LoadRangeAt(outs[i], sizes[i], wordBytes)
	}
	out := g.alloc(1)
	t.StoreAt(out, wordBytes)
	return out, 1
}

// leaf reads from the input region and writes a fresh output region, by
// per-word hooks or by one range hook, at random.
func (g *progGen) leaf(t *stint.Task, words int) (stint.Addr, int) {
	out := g.alloc(words)
	if g.rng.IntN(2) == 0 {
		for i := 0; i < words/2; i++ {
			t.LoadAt(g.in+stint.Addr(g.rng.IntN(g.inWords)*wordBytes), wordBytes)
		}
	} else {
		t.LoadRangeAt(g.in, min(words, g.inWords), wordBytes)
	}
	if g.rng.IntN(2) == 0 {
		for i := 0; i < words; i++ {
			t.StoreAt(out+stint.Addr(i*wordBytes), wordBytes)
		}
	} else {
		t.StoreRangeAt(out, words, wordBytes)
	}
	return out, words
}
