package htmlx

import (
	"strings"
	"testing"
)

// appendTextRef is the bytewise whitespace collapse appendText replaced,
// kept as the oracle FuzzAppendText holds the word-at-a-time loop to.
func appendTextRef(b *strings.Builder, run []byte) {
	cur := b.String()
	// spaced: a space appended now would lead the text or double one.
	spaced := len(cur) == 0 || cur[len(cur)-1] == ' '
	for len(run) > 0 {
		n := 0
		for n < len(run) {
			if c := run[n]; c > ' ' || !isSpace(c) {
				spaced = false
			} else if c == ' ' && !spaced {
				spaced = true
			} else {
				break
			}
			n++
		}
		b.Write(run[:n])
		run = run[n:]
		// What is left begins with whitespace that does not copy verbatim.
		n = 0
		for n < len(run) && isSpace(run[n]) {
			n++
		}
		if n > 0 && !spaced {
			b.WriteByte(' ')
			spaced = true
		}
		run = run[n:]
	}
}

// FuzzAppendText appends one run after a prefix with both loops and
// requires the same text. The prefix decides the starting state: empty or
// ending in a space, a space in the run leads or doubles.
func FuzzAppendText(f *testing.F) {
	words := "abcdefghijklmnopq"
	spaced := "a b c d e f g h i"
	for n := 0; n <= 17; n++ {
		f.Add("", []byte(words[:n]))
		f.Add("x", []byte(spaced[:n]))
		f.Add("x ", []byte(spaced[:n]))
	}
	for _, at := range []int{6, 7, 8, 9} {
		run := []byte("abcdefghijklmnop")
		run[at], run[at+1] = ' ', ' '
		f.Add("x", run)
	}
	f.Add("x ", []byte(" leading space after a spaced prefix"))
	f.Add("x", []byte(" leading space after a word, then more"))
	f.Add("x", []byte("vertical\vtab and nul\x00 and unit\x1fsep and del\x7f in a run"))
	high := make([]byte, 0, 0x80)
	for c := 0x80; c <= 0xff; c++ {
		high = append(high, byte(c))
	}
	f.Add("x", high)
	f.Add("x", []byte("naïve café — “quoted”  Ⱥ\xff\xfe bad \xc3 utf-8 \xe2\x80"))
	f.Add("", []byte("para one\n\t\tpara  two\r\nthree\f four\t\t\tfive        six"))
	for _, p := range benchPages() {
		f.Add("", p.src)
	}
	f.Fuzz(func(t *testing.T, prefix string, run []byte) {
		var got, want strings.Builder
		got.WriteString(prefix)
		want.WriteString(prefix)
		appendText(&got, run)
		appendTextRef(&want, run)
		if got.String() != want.String() {
			t.Errorf("prefix %q, run %q:\n got  %q\n want %q", prefix, run, got.String(), want.String())
		}
	})
}
