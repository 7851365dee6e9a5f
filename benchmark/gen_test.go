package main

import (
	"slices"
	"testing"
)

func TestGenMixSameSeedIsByteIdentical(t *testing.T) {
	a, err := genMix(7, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genMix(7, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMix(a, b); err != nil {
		t.Fatalf("same seed, different mixes: %v", err)
	}
	for i := range a {
		if a[i].events != b[i].events || a[i].tail != b[i].tail {
			t.Fatalf("trace %d: events %d/%d tail %v/%v", i, a[i].events, b[i].events, a[i].tail, b[i].tail)
		}
	}
	if !slices.Equal(sendOrder(7, 32), sendOrder(7, 32)) {
		t.Fatal("same seed, different send orders")
	}
}

func TestGenMixSeedsDiffer(t *testing.T) {
	a, err := genMix(7, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genMix(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if sameMix(a, b) == nil {
		t.Fatal("seeds 7 and 8 generated the same mix")
	}
	if slices.Equal(sendOrder(7, 32), sendOrder(8, 32)) {
		t.Fatal("seeds 7 and 8 generated the same send order")
	}
}

// TestGenMixPlantedShare checks the mix's shape against the generator's
// constants, and that exactly the planted traces race under the offline
// reference replay.
func TestGenMixPlantedShare(t *testing.T) {
	const n = 64
	mix, err := genMix(3, n)
	if err != nil {
		t.Fatal(err)
	}
	racy, tails := 0, 0
	for _, m := range mix {
		if m.racy {
			racy++
		}
		if m.tail {
			tails++
			if m.words != tailWords {
				t.Errorf("tail trace has %d words, want %d", m.words, tailWords)
			}
		} else if m.words < smallWordsMin || m.words > smallWordsMax {
			t.Errorf("small trace has %d words, want %d..%d", m.words, smallWordsMin, smallWordsMax)
		}
		if m.events == 0 || len(m.data) == 0 {
			t.Errorf("empty trace: %d events, %d bytes", m.events, len(m.data))
		}
	}
	if racy != n/mixRacyEvery || tails != n/mixTailEvery {
		t.Fatalf("%d racy and %d tail traces, want %d and %d", racy, tails, n/mixRacyEvery, n/mixTailEvery)
	}
	g := &gate{}
	refs, err := references(mix, g)
	if err != nil {
		t.Fatal(err)
	}
	if g.failed != 0 || g.attempted != n {
		t.Fatalf("references: %d of %d failed: %v", g.failed, g.attempted, g.errs)
	}
	for i, ref := range refs {
		if (ref.raceCount > 0) != mix[i].racy {
			t.Errorf("trace %d: racy %v but %d races", i, mix[i].racy, ref.raceCount)
		}
	}
}
