package pre

import (
	"fmt"
	"testing"
)

func TestParseCachedHitAndEquivalence(t *testing.T) {
	const src = "N | G·(L*4)·(G|L)*2"
	e1, hit, err := ParseCached(src)
	if err != nil {
		t.Fatal(err)
	}
	_ = hit // may be warm from another test: the cache is process-wide
	e2, hit, err := ParseCached(src)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second ParseCached missed")
	}
	if e1.String() != e2.String() {
		t.Fatalf("cached expression differs: %q vs %q", e1.String(), e2.String())
	}
	want := MustParse(src)
	if !Equal(want, e2) {
		t.Fatalf("cached expression not equivalent to Parse: %s vs %s", want, e2)
	}
}

func TestParseCachedErrorNotCached(t *testing.T) {
	const bad = "G·(L*"
	if _, _, err := ParseCached(bad); err == nil {
		t.Fatal("malformed PRE parsed")
	}
	// An error result must not be cached as a (nil) expression.
	if e, hit, err := ParseCached(bad); err == nil || hit || e != nil {
		t.Fatalf("second call: e=%v hit=%v err=%v, want fresh error", e, hit, err)
	}
}

func TestParseCachedEpochFlush(t *testing.T) {
	// Overflow the cache with distinct strings; it must flush rather than
	// grow without bound, and stay correct afterwards.
	for i := 0; i <= parseCacheMax; i++ {
		src := fmt.Sprintf("N|(G*%d)", i%97+1) // small closed set, re-parsed many times
		if _, _, err := ParseCached(src); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= parseCacheMax; i++ {
		if _, _, err := ParseCached(fmt.Sprintf("L*%d·G", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	parseCache.RLock()
	n := len(parseCache.m)
	parseCache.RUnlock()
	if n > parseCacheMax {
		t.Fatalf("cache grew past its bound: %d entries", n)
	}
	e, _, err := ParseCached("G·L")
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(MustParse("G·L"), e) {
		t.Fatalf("post-flush parse wrong: %s", e)
	}
}
