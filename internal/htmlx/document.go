package htmlx

import (
	"bytes"
	"encoding/binary"
	"strings"

	"webdis/internal/pre"
)

// Anchor is one hyperlink of a document, corresponding to a tuple of the
// ANCHOR virtual relation: the hypertext label, the URL of the containing
// document (base), the resolved destination (href) and the WEBDIS link
// category (ltype).
type Anchor struct {
	Label string
	Base  string
	Href  string
	Type  pre.Link
}

// RelInfon is a group of related information inside a document, identified
// by the HTML tag that delimits it (Lakshmanan et al.'s rel-infon concept,
// Section 2.2 of the paper). For paired tags such as <b>…</b> the text is
// the enclosed content; for the unpaired <hr> tag the text is the segment
// preceding the rule, matching the paper's "the name of the convener is
// usually succeeded by a horizontal line" usage.
type RelInfon struct {
	Delimiter string
	Text      string
}

// Document is the analyzed form of one web resource — everything the
// Database Constructor needs to populate the DOCUMENT, ANCHOR and RELINFON
// virtual relations.
type Document struct {
	URL     string
	Title   string
	Text    string
	Length  int // length of the raw HTML in bytes
	Anchors []Anchor
	Infons  []RelInfon
}

// Parse analyzes the HTML of the resource at baseURL. It never fails on
// malformed markup — the tokenizer degrades to text — but it does reject an
// unparseable base URL, since link classification is impossible without it.
//
// The page is read once. The text Parse keeps of it is copied into one
// accumulator, sized from len(src) up front: collapsing whitespace,
// decoding entities and dropping markup only ever shorten, so the text
// cannot outgrow the source and the accumulator never reallocates. Text,
// anchor labels and rel-infon texts are substrings of it. The title gets a
// small allocation of its own — it travels in result rows, which must not
// keep a whole page's text alive. Anchors and rel-infons collect in stack
// buffers and are copied out once. No string of the Document aliases src.
func Parse(baseURL string, src []byte) (*Document, error) {
	lk, err := newLinker(baseURL)
	if err != nil {
		return nil, err
	}
	doc := &Document{URL: baseURL, Length: len(src)}

	type open struct {
		tag   Tag
		start int // offset into the text accumulator
	}
	var (
		text      strings.Builder
		stackBuf  [8]open
		stack     = stackBuf[:0] // open rel-infon delimiters
		anchorBuf [8]Anchor
		anchors   = anchorBuf[:0]
		infonBuf  [8]RelInfon
		infons    = infonBuf[:0]
		inTitle   bool
		inRaw     bool           // inside <script> or <style>
		titleBuf  [2][2]int      // the usual title is one run
		title     = titleBuf[:0] // [start, end) runs of src, decoded once their total length is known
		hrStart   int            // text offset where the current <hr> segment began
		curA      Anchor         // the open <a>, if inA
		inA       bool
		aStart    int
	)
	text.Grow(len(src))
	z := Tokenizer{src: src}
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			switch {
			case inRaw:
			case inTitle:
				title = append(title, [2]int{z.pos - len(tok.Data), z.pos})
			default:
				appendRun(&text, tok.Data)
			}
		case StartTagToken, SelfClosingTag:
			switch tok.Tag {
			case TagTitle:
				if tok.Type == StartTagToken {
					inTitle = true
				}
			case TagScript, TagStyle:
				if tok.Type == StartTagToken {
					inRaw = true
				}
			case TagA:
				if href, ok := tok.Attr("href"); ok && len(href) > 0 {
					curA = lk.anchor(DecodeEntities(string(href)))
					inA, aStart = true, text.Len()
				}
			case TagHR:
				if seg := trimmedSince(&text, hrStart); seg != "" {
					infons = append(infons, RelInfon{Delimiter: "hr", Text: seg})
				}
				hrStart = text.Len()
			case TagBR, TagP, TagDiv, TagTR:
				appendText(&text, []byte{' '})
			}
			if tok.Type == StartTagToken && tok.Tag.relInfon() {
				stack = append(stack, open{tok.Tag, text.Len()})
			}
		case EndTagToken:
			switch tok.Tag {
			case TagTitle:
				inTitle = false
			case TagScript, TagStyle:
				inRaw = false
			case TagA:
				if inA {
					curA.Label = trimmedSince(&text, aStart)
					anchors = append(anchors, curA)
					inA = false
				}
			}
			if tok.Tag.relInfon() {
				// close the nearest matching open tag
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].tag == tok.Tag {
						if seg := trimmedSince(&text, stack[i].start); seg != "" {
							infons = append(infons, RelInfon{Delimiter: tok.Tag.String(), Text: seg})
						}
						stack = append(stack[:i], stack[i+1:]...)
						break
					}
				}
			}
		}
	}
	if inA { // unclosed <a>
		curA.Label = trimmedSince(&text, aStart)
		anchors = append(anchors, curA)
	}
	doc.Text = strings.TrimSpace(text.String())
	if len(anchors) > 0 {
		doc.Anchors = append([]Anchor(nil), anchors...)
	}
	if len(infons) > 0 {
		doc.Infons = append([]RelInfon(nil), infons...)
	}
	if len(title) > 0 {
		var b strings.Builder
		n := 0
		for _, run := range title {
			n += run[1] - run[0]
		}
		b.Grow(n)
		for _, run := range title {
			appendRun(&b, src[run[0]:run[1]])
		}
		doc.Title = strings.TrimSpace(b.String())
	}
	return doc, nil
}

// trimmedSince returns the accumulated text from offset start on, trimmed.
func trimmedSince(text *strings.Builder, start int) string {
	return strings.TrimSpace(text.String()[start:])
}

// appendRun appends one raw text run of the source to the accumulator,
// decoding entities only if the run has any.
func appendRun(b *strings.Builder, run []byte) {
	if bytes.IndexByte(run, '&') >= 0 {
		appendDecoded(b, run)
	} else {
		appendText(b, run)
	}
}

// Byte-lane constants for reading eight bytes of a run as one word.
const (
	lanes01 = 0x0101010101010101 // 0x01 in every byte
	lanes7f = 0x7f7f7f7f7f7f7f7f
	lanes80 = 0x8080808080808080 // the high bit of every byte
)

// appendText streams run into the accumulator with whitespace runs
// collapsed to single spaces (including across token boundaries), so that
// offsets recorded by anchors and rel-infons stay consistent. The
// collapsed characters are all ASCII, and multi-byte UTF-8 sequences never
// contain ASCII-range bytes, so they pass through intact. A stretch that
// is already in collapsed form — words one space apart, the usual
// paragraph — is measured eight bytes at a time and copied in one call;
// only the word where that form breaks, and a tail under eight bytes, are
// looked at bytewise.
func appendText(b *strings.Builder, run []byte) {
	cur := b.String()
	// spaced: a space appended now would lead the text or double one.
	spaced := len(cur) == 0 || cur[len(cur)-1] == ' '
	for len(run) > 0 {
		n := 0
	verbatim:
		for n < len(run) {
			var lead uint64 // spaced, as the space flag of the byte before the word
			if spaced {
				lead = 0x80
			}
			w := run[n:]
			for ; len(w) >= 8; w = w[8:] {
				x := binary.LittleEndian.Uint64(w)
				// Any byte below ' ' — every whitespace byte but the space
				// among them — goes bytewise. Exact as a yes/no test; bytes
				// >= 0x80 never set it off.
				if (x-' '*lanes01)&^x&lanes80 != 0 {
					break
				}
				// sp has the high bit of each space byte, and of no other:
				// the (y&7f)+7f form carries nothing into the next byte.
				y := x ^ ' '*lanes01
				sp := ^((y&lanes7f + lanes7f) | y | lanes7f)
				if sp&(sp<<8|lead) != 0 { // a space after a space
					break
				}
				lead = sp >> 56
			}
			n, spaced = len(run)-len(w), lead != 0
			// Bytewise through the word that broke the form, or the tail.
			for end := min(n+8, len(run)); n < end; n++ {
				if c := run[n]; c > ' ' || !isSpace(c) {
					spaced = false
				} else if c == ' ' && !spaced {
					spaced = true
				} else {
					break verbatim
				}
			}
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

// LinksOf returns the anchors of category t, preserving document order.
func (d *Document) LinksOf(t pre.Link) []Anchor {
	var out []Anchor
	for _, a := range d.Anchors {
		if a.Type == t {
			out = append(out, a)
		}
	}
	return out
}
