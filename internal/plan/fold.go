package plan

import "strings"

// containsFold reports whether needle occurs in text without regard to
// case; it is strings.Contains(strings.ToLower(text), strings.ToLower(needle))
// value for value, without the two lowered copies when it can avoid them.
//
// An all-ASCII needle is searched for by ASCII-folded comparison on text
// itself. A hit is final: ToLower maps rune by rune, so an ASCII stretch
// of text is its own lowering. A miss is final only when text is ASCII
// too, because ToLower maps a few non-ASCII runes onto ASCII letters
// (U+212A KELVIN SIGN to k, U+0130 to i) and text may hold the needle
// spelled with one of them. Any byte >= 0x80 in the needle, or in a text
// that missed, therefore falls back to the lowered copies.
func containsFold(text, needle string) bool {
	if needle == "" {
		return true
	}
	if !isASCII(needle) {
		return containsLowered(text, needle)
	}
	if indexFoldASCII(text, needle) >= 0 {
		return true
	}
	return !isASCII(text) && containsLowered(text, needle)
}

func containsLowered(text, needle string) bool {
	return strings.Contains(strings.ToLower(text), strings.ToLower(needle))
}

// indexFoldASCII returns the index of the first occurrence of needle (not
// empty, all ASCII) in text under ASCII case folding, or -1. Candidates
// are the occurrences of either case of the needle's first byte, found
// with strings.IndexByte; the next occurrence of each case is remembered,
// so no byte of text is looked for more than twice.
func indexFoldASCII(text, needle string) int {
	last := len(text) - len(needle)
	if last < 0 {
		return -1
	}
	lo := lowerASCII(needle[0])
	up := upperASCII(lo)
	next := func(c byte, from int) int {
		if i := strings.IndexByte(text[from:], c); i >= 0 {
			return from + i
		}
		return len(text)
	}
	nextLo, nextUp := next(lo, 0), len(text)
	if up != lo {
		nextUp = next(up, 0)
	}
	for {
		i := min(nextLo, nextUp)
		if i > last {
			return -1
		}
		if equalFoldASCII(text[i+1:i+len(needle)], needle[1:]) {
			return i
		}
		if i == nextLo {
			nextLo = next(lo, i+1)
		} else {
			nextUp = next(up, i+1)
		}
	}
}

// equalFoldASCII compares two strings of equal length under ASCII case
// folding. Bytes >= 0x80 equal only themselves.
func equalFoldASCII(a, b string) bool {
	for i := 0; i < len(a); i++ {
		if x, y := a[i], b[i]; x != y && lowerASCII(x) != lowerASCII(y) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

func upperASCII(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// isASCII reports whether every byte of s is below 0x80, eight at a time.
func isASCII(s string) bool {
	for len(s) >= 8 {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		if w&0x8080808080808080 != 0 {
			return false
		}
		s = s[8:]
	}
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
