package pre

import "testing"

// Micro-benchmarks for the PRE operations on the clone path: parsing a
// clone's remaining expression, deriving it across a link, and the two
// coverage tests the Node-query Log Table runs (star-bound comparison and
// full language containment).

func BenchmarkPREParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse("N | G·(L*4)·(G|L)*2"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPREDerive(b *testing.B) {
	e := MustParse("G·(L*4)·(G|L)*2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if IsNone(Derive(e, Global)) {
			b.Fatal("dead derivative")
		}
	}
}

func BenchmarkPRECompare(b *testing.B) {
	old := MustParse("L*2·G")
	new := MustParse("L*4·G")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Compare(old, new) != NewCovers {
			b.Fatal("unexpected relation")
		}
	}
}

func BenchmarkPREDFAContains(b *testing.B) {
	super := MustParse("(G|L)*6")
	sub := MustParse("G·L*4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := Contains(super, sub)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}
