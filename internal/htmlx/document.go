package htmlx

import (
	"bytes"
	"encoding/binary"
	"strings"
	"unsafe"

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
	var (
		anchorBuf [8]Anchor
		infonBuf  [8]RelInfon
	)
	doc := new(Document)
	_, anchors, infons, err := parse(doc, baseURL, src, make([]byte, 0, len(src)), anchorBuf[:0], infonBuf[:0])
	if err != nil {
		return nil, err
	}
	if len(anchors) > 0 {
		doc.Anchors = append([]Anchor(nil), anchors...)
	}
	if len(infons) > 0 {
		doc.Infons = append([]RelInfon(nil), infons...)
	}
	return doc, nil
}

// Scratch is the memory ParseInto parses into, kept from page to page:
// the Document, the text accumulator and the anchor and rel-infon
// slices. Its zero value is ready for use.
type Scratch struct {
	doc     Document
	text    []byte
	anchors []Anchor
	infons  []RelInfon
}

// ParseInto is Parse into s: the Document it returns is s's own, and its
// text, anchor labels and rel-infon texts are views of s's accumulator,
// which only grows when a page is longer than every page before it. They
// stay valid until s parses again, so a caller that pools s keeps every
// string that must outlive the page through Detach first.
func ParseInto(baseURL string, src []byte, s *Scratch) (*Document, error) {
	text := s.text[:0]
	if cap(text) < len(src) {
		text = make([]byte, 0, len(src))
	}
	s.doc = Document{}
	var err error
	s.text, s.anchors, s.infons, err = parse(&s.doc, baseURL, src, text, s.anchors[:0], s.infons[:0])
	if err != nil {
		return nil, err
	}
	if n := len(s.anchors); n > 0 {
		s.doc.Anchors = s.anchors[:n:n]
	}
	if n := len(s.infons); n > 0 {
		s.doc.Infons = s.infons[:n:n]
	}
	return &s.doc, nil
}

// Detach returns str, copied if it is a view of s's accumulator, so that
// it survives s's next parse.
func (s *Scratch) Detach(str string) string {
	if len(str) == 0 || cap(s.text) == 0 {
		return str
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(str)))
	base := uintptr(unsafe.Pointer(unsafe.SliceData(s.text)))
	if p < base || p >= base+uintptr(cap(s.text)) {
		return str
	}
	return strings.Clone(str)
}

// Reset drops what s holds of its last page — the Document and the href
// strings of its anchors — keeping the memory for the next ParseInto.
func (s *Scratch) Reset() {
	s.doc = Document{}
	clear(s.anchors)
	clear(s.infons)
}

// Poison overwrites the whole accumulator with c, so that a string still
// viewing it reads c: a test hook for uses of a page after its release.
func (s *Scratch) Poison(c byte) {
	text := s.text[:cap(s.text)]
	for i := range text {
		text[i] = c
	}
}

// view returns b's bytes as a string without copying; b must not change
// while the string is in use.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// parse analyzes src into doc, accumulating its text into text and its
// anchors and rel-infons into anchors and infons, and returns the three
// as they grew. Everything but doc's Anchors and Infons is set.
func parse(doc *Document, baseURL string, src, text []byte, anchors []Anchor, infons []RelInfon) ([]byte, []Anchor, []RelInfon, error) {
	lk, err := newLinker(baseURL)
	if err != nil {
		return text, anchors, infons, err
	}
	doc.URL, doc.Length = baseURL, len(src)

	type open struct {
		tag   Tag
		start int // offset into the text accumulator
	}
	var (
		stackBuf [8]open
		stack    = stackBuf[:0] // open rel-infon delimiters
		inTitle  bool
		inRaw    bool           // inside <script> or <style>
		titleBuf [2][2]int      // the usual title is one run
		title    = titleBuf[:0] // [start, end) runs of src, decoded once their total length is known
		hrStart  int            // text offset where the current <hr> segment began
		curA     Anchor         // the open <a>, if inA
		inA      bool
		aStart   int
	)
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
				text = appendRun(text, tok.Data)
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
					inA, aStart = true, len(text)
				}
			case TagHR:
				if seg := trimmedSince(text, hrStart); seg != "" {
					infons = append(infons, RelInfon{Delimiter: "hr", Text: seg})
				}
				hrStart = len(text)
			case TagBR, TagP, TagDiv, TagTR:
				text = appendText(text, []byte{' '})
			}
			if tok.Type == StartTagToken && tok.Tag.relInfon() {
				stack = append(stack, open{tok.Tag, len(text)})
			}
		case EndTagToken:
			switch tok.Tag {
			case TagTitle:
				inTitle = false
			case TagScript, TagStyle:
				inRaw = false
			case TagA:
				if inA {
					curA.Label = trimmedSince(text, aStart)
					anchors = append(anchors, curA)
					inA = false
				}
			}
			if tok.Tag.relInfon() {
				// close the nearest matching open tag
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].tag == tok.Tag {
						if seg := trimmedSince(text, stack[i].start); seg != "" {
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
		curA.Label = trimmedSince(text, aStart)
		anchors = append(anchors, curA)
	}
	doc.Text = strings.TrimSpace(view(text))
	if len(title) > 0 {
		n := 0
		for _, run := range title {
			n += run[1] - run[0]
		}
		b := make([]byte, 0, n)
		for _, run := range title {
			b = appendRun(b, src[run[0]:run[1]])
		}
		doc.Title = strings.TrimSpace(view(b))
	}
	return text, anchors, infons, nil
}

// trimmedSince returns the accumulated text from offset start on, trimmed.
func trimmedSince(text []byte, start int) string {
	return strings.TrimSpace(view(text[start:]))
}

// appendRun appends one raw text run of the source to the accumulator,
// decoding entities only if the run has any.
func appendRun(b, run []byte) []byte {
	if bytes.IndexByte(run, '&') >= 0 {
		return appendDecoded(b, run)
	}
	return appendText(b, run)
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
func appendText(b, run []byte) []byte {
	// spaced: a space appended now would lead the text or double one.
	spaced := len(b) == 0 || b[len(b)-1] == ' '
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
		b = append(b, run[:n]...)
		run = run[n:]
		// What is left begins with whitespace that does not copy verbatim.
		n = 0
		for n < len(run) && isSpace(run[n]) {
			n++
		}
		if n > 0 && !spaced {
			b = append(b, ' ')
			spaced = true
		}
		run = run[n:]
	}
	return b
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
