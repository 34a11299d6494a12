package dsm

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestDisjointDiffsCommute is the multi-writer soundness property behind
// lazy release consistency: two writers of the same block that touch
// disjoint word sets (a data-race-free interval) produce diffs the home
// can merge in either order with the same result. serveFlush relies on
// exactly this — flush arrival order at the home is scheduling-dependent.
func TestDisjointDiffsCommute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const words = PageSize / diffWord
	for trial := 0; trial < 200; trial++ {
		base := make([]byte, PageSize)
		rng.Read(base)

		// Partition a random subset of words between the two writers.
		curA := append([]byte(nil), base...)
		curB := append([]byte(nil), base...)
		for w := 0; w < words; w++ {
			switch rng.Intn(4) {
			case 0: // writer A touches this word
				rng.Read(curA[w*diffWord : (w+1)*diffWord])
			case 1: // writer B touches this word
				rng.Read(curB[w*diffWord : (w+1)*diffWord])
			}
		}

		limit := 2*PageSize + 64
		diffA, ok := diffEncode(nil, base, curA, limit)
		if !ok {
			t.Fatalf("trial %d: writer A's diff exceeded the limit", trial)
		}
		diffB, ok := diffEncode(nil, base, curB, limit)
		if !ok {
			t.Fatalf("trial %d: writer B's diff exceeded the limit", trial)
		}

		ab := append([]byte(nil), base...)
		if !diffApply(ab, diffA) || !diffApply(ab, diffB) {
			t.Fatalf("trial %d: A-then-B application failed", trial)
		}
		ba := append([]byte(nil), base...)
		if !diffApply(ba, diffB) || !diffApply(ba, diffA) {
			t.Fatalf("trial %d: B-then-A application failed", trial)
		}
		if !bytes.Equal(ab, ba) {
			t.Fatalf("trial %d: disjoint diffs do not commute", trial)
		}

		// Either order must contain exactly both writers' words.
		for w := 0; w < words; w++ {
			lo, hi := w*diffWord, (w+1)*diffWord
			want := base[lo:hi]
			if !bytes.Equal(curA[lo:hi], base[lo:hi]) {
				want = curA[lo:hi]
			} else if !bytes.Equal(curB[lo:hi], base[lo:hi]) {
				want = curB[lo:hi]
			}
			if !bytes.Equal(ab[lo:hi], want) {
				t.Fatalf("trial %d: word %d lost an update", trial, w)
			}
		}
	}
}

// TestOverlappingDiffsLastMergeWins documents the flip side: when writers
// overlap (a racy program), the home's merge order picks the winner —
// which is why dfcheck must flag overlapping writers under LRC rather
// than the DSM trying to reconcile them.
func TestOverlappingDiffsLastMergeWins(t *testing.T) {
	base := make([]byte, PageSize)
	curA := append([]byte(nil), base...)
	curB := append([]byte(nil), base...)
	for i := 0; i < diffWord; i++ {
		curA[i] = 0xAA
		curB[i] = 0xBB
	}
	limit := 2*PageSize + 64
	diffA, _ := diffEncode(nil, base, curA, limit)
	diffB, _ := diffEncode(nil, base, curB, limit)

	ab := append([]byte(nil), base...)
	diffApply(ab, diffA)
	diffApply(ab, diffB)
	if ab[0] != 0xBB {
		t.Fatalf("A-then-B must end with B's value, got %#x", ab[0])
	}
	ba := append([]byte(nil), base...)
	diffApply(ba, diffB)
	diffApply(ba, diffA)
	if ba[0] != 0xAA {
		t.Fatalf("B-then-A must end with A's value, got %#x", ba[0])
	}
}
