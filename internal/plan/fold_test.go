package plan

import (
	"math/rand"
	"strings"
	"testing"

	"webdis/internal/nodequery"
)

// FuzzContainsFold holds containsFold to the expression it replaced —
// still the one nodequery's reference evaluator uses — on arbitrary pairs,
// invalid UTF-8 included.
func FuzzContainsFold(f *testing.F) {
	for _, s := range [][2]string{
		{"K", "k"}, {"k", "K"}, // U+212A KELVIN SIGN lowers to ASCII k
		{"İ", "i"}, {"DİV", "div"}, // U+0130 lowers to ASCII i
		{"ſ", "s"}, {"S", "ſ"}, // U+017F upper-cases to S but does not lower to s
		{"Ⱥ", "ⱥ"}, {"xȺy", "Ⱥ"}, // lowering changes the byte length
		{"anything", ""}, {"", ""}, {"", "x"},
		{"short", "a needle longer than the haystack"},
		{"The Quick Brown Fox", "QUICK b"}, {"aAaAab", "AAB"}, {"aaaa", "aaab"},
		{"caf\xe9 AU lait", "au"}, {"\xff\xfe", "\xff"}, {"a\x80b", "B"},
		{"1+1=2", "+1="}, {"tail match Z", "z"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, text, needle string) {
		want := strings.Contains(strings.ToLower(text), strings.ToLower(needle))
		if got := containsFold(text, needle); got != want {
			t.Errorf("containsFold(%q, %q) = %v, want %v", text, needle, got, want)
		}
	})
}

// mixedCaseText is about n bytes of ASCII words in mixed case, the shape
// of a tree40-docs text column.
func mixedCaseText(n int) string {
	r := rand.New(rand.NewSource(1))
	var b strings.Builder
	for b.Len() < n {
		w := []byte("lorem ipsum dolor sit amet consectetur"[r.Intn(30):][:1+r.Intn(8)])
		if r.Intn(3) == 0 {
			w[0] -= 'a' - 'A'
		}
		b.Write(w)
		b.WriteByte(' ')
	}
	return strings.ReplaceAll(b.String(), "  ", " ")
}

var sinkBool bool

func BenchmarkContains(b *testing.B) {
	text := mixedCaseText(35 << 10)
	// Both cases of the needle's first byte are frequent in the text, so
	// the search verifies a candidate every few bytes.
	const needle = "sit marker"
	for _, c := range []struct{ name, text, needle string }{
		{"hit-at-end", text + "Sit Marker", needle},
		{"miss", text, needle},
		{"non-ascii-fallback", text + "é", needle},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkBool = containsFold(c.text, c.needle)
			}
		})
	}
}

// TestContainsAllocs pins the ASCII search at no allocation at all, hit
// or miss, and a contains-conjunct over a document tuple at no more than
// the same row costs under any other comparison (what is left is the
// column lookup, not the comparison).
func TestContainsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	text := mixedCaseText(35<<10) + "WebDisMarker"
	for _, needle := range []string{"webdismarker", "absent needle"} {
		if n := testing.AllocsPerRun(20, func() { sinkBool = containsFold(text, needle) }); n != 0 {
			t.Errorf("containsFold(35 KB ASCII text, %q): %.0f allocations, want 0", needle, n)
		}
	}
	idx := map[string]int{"d.url": 0, "d.text": 1}
	row := []string{"http://t0.example/p0.html", text}
	evalAllocs := func(op nodequery.CmpOp) float64 {
		p := &nodequery.Pred{Kind: nodequery.Cmp, Op: op,
			Left: nodequery.ColOperand("d", "text"), Right: nodequery.LitOperand("webdismarker")}
		c := compileCond(p, idx, &outerVals{})
		return testing.AllocsPerRun(20, func() { sinkBool = c.eval(row, nil) })
	}
	if c, e := evalAllocs(nodequery.Contains), evalAllocs(nodequery.Eq); c > e {
		t.Errorf("contains over a document tuple: %.0f allocations, = over the same tuple: %.0f", c, e)
	}
}
