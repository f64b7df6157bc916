// Package htmlx is a small, from-scratch HTML tokenizer and document
// analyzer sufficient for the WEBDIS relational document model: it extracts
// the title, the visible text, the hyperlink anchors with their WEBDIS link
// classification (interior / local / global), and the tag-delimited
// rel-infons of Lakshmanan et al. that the paper adds to the Mendelzon
// document model.
//
// It is not a general-purpose HTML5 parser; it handles the well-formed
// HTML that the webgraph generator emits plus the common sloppiness of
// 1990s hand-written pages (unclosed tags, uppercase tag names, unquoted
// attribute values, character entities).
//
// A page is read once, over its bytes: the tokenizer yields spans of the
// source, names are matched by ASCII-folded byte comparison on the source
// itself (never on a lowered copy, whose offsets differ from the source's
// as soon as a rune changes length under case mapping), and Parse copies
// what it keeps into one text accumulator.
package htmlx

import (
	"bytes"
	"strings"
	"unicode/utf8"
)

// TokenType identifies a lexical element of an HTML byte stream.
type TokenType int

// Token types produced by the Tokenizer.
const (
	TextToken      TokenType = iota // a run of character data
	StartTagToken                   // <name attr=...>
	EndTagToken                     // </name>
	SelfClosingTag                  // <name ... />
	CommentToken                    // <!-- ... --> and <!doctype ...>
)

// Tag identifies an element Parse acts on; every other name is TagOther.
type Tag uint8

// The elements of the document model. Those from TagB on delimit a
// rel-infon by their paired content.
const (
	TagOther Tag = iota
	TagTitle
	TagScript
	TagStyle
	TagA
	TagHR
	TagBR
	TagP
	TagDiv
	TagTR
	TagB
	TagI
	TagEm
	TagStrong
	TagU
	TagH1
	TagH2
	TagH3
	TagH4
	TagH5
	TagH6
	TagCode
	TagBlockquote
	TagLi
	TagTd
	TagTh
	TagAddress
	TagCite
	TagCaption
)

var tagNames = [...]string{
	TagOther: "", TagTitle: "title", TagScript: "script", TagStyle: "style",
	TagA: "a", TagHR: "hr", TagBR: "br", TagP: "p", TagDiv: "div", TagTR: "tr",
	TagB: "b", TagI: "i", TagEm: "em", TagStrong: "strong", TagU: "u",
	TagH1: "h1", TagH2: "h2", TagH3: "h3", TagH4: "h4", TagH5: "h5", TagH6: "h6",
	TagCode: "code", TagBlockquote: "blockquote", TagLi: "li", TagTd: "td", TagTh: "th",
	TagAddress: "address", TagCite: "cite", TagCaption: "caption",
}

// String returns the element's lower-case name ("" for TagOther).
func (t Tag) String() string { return tagNames[t] }

// relInfon reports whether the element's paired content forms a rel-infon.
func (t Tag) relInfon() bool { return t >= TagB }

const maxTagName = len("blockquote")

// lookupTag folds name into a stack buffer and matches it by length and
// bytes; nothing is hashed and nothing allocates.
func lookupTag(name []byte) Tag {
	var buf [maxTagName]byte
	if len(name) > len(buf) {
		return TagOther
	}
	b := buf[:len(name)]
	for i, c := range name {
		b[i] = lowerASCII(c)
	}
	switch len(b) {
	case 1:
		switch b[0] {
		case 'a':
			return TagA
		case 'p':
			return TagP
		case 'b':
			return TagB
		case 'i':
			return TagI
		case 'u':
			return TagU
		}
	case 2:
		switch c := b[1]; b[0] {
		case 'h':
			switch {
			case '1' <= c && c <= '6':
				return TagH1 + Tag(c-'1')
			case c == 'r':
				return TagHR
			}
		case 'b':
			if c == 'r' {
				return TagBR
			}
		case 't':
			switch c {
			case 'r':
				return TagTR
			case 'd':
				return TagTd
			case 'h':
				return TagTh
			}
		case 'e':
			if c == 'm' {
				return TagEm
			}
		case 'l':
			if c == 'i' {
				return TagLi
			}
		}
	default:
		switch string(b) { // compared in place, not converted
		case "div":
			return TagDiv
		case "code":
			return TagCode
		case "cite":
			return TagCite
		case "title":
			return TagTitle
		case "style":
			return TagStyle
		case "script":
			return TagScript
		case "strong":
			return TagStrong
		case "address":
			return TagAddress
		case "caption":
			return TagCaption
		case "blockquote":
			return TagBlockquote
		}
	}
	return TagOther
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// hasPrefixFold reports whether s begins with lower (an all-lower-case
// ASCII string), ignoring ASCII case.
func hasPrefixFold(s []byte, lower string) bool {
	if len(s) < len(lower) {
		return false
	}
	for i := 0; i < len(lower); i++ {
		if lowerASCII(s[i]) != lower[i] {
			return false
		}
	}
	return true
}

// Attr is one attribute of a tag. Key is the name as written and Val the
// raw value (entities undecoded); both are spans of the source.
type Attr struct {
	Key, Val []byte
}

// Token is one lexical element. Data is a span of the source: the raw run
// (entities undecoded) of a text token, the name as written of a tag
// token, the body of a comment. Attrs is reused by the next call to Next.
type Token struct {
	Type  TokenType
	Tag   Tag // the element of a tag token
	Data  []byte
	Attrs []Attr
}

// Attr returns the raw value of the attribute called name (lower-case
// ASCII), matched without regard to ASCII case, and whether it is present.
func (t *Token) Attr(name string) ([]byte, bool) {
	for _, a := range t.Attrs {
		if len(a.Key) == len(name) && hasPrefixFold(a.Key, name) {
			return a.Val, true
		}
	}
	return nil, false
}

// Tokenizer scans an HTML document into Tokens without copying any of it.
// The zero value is not usable; construct with NewTokenizer.
type Tokenizer struct {
	src []byte
	pos int
	// rawtext is the element whose raw content is pending (script,
	// style): everything up to the matching close tag is one text token.
	rawtext Tag
	// attrBuf backs the current token's Attrs, so that a tag with the
	// usual handful of attributes costs no allocation.
	attrBuf [4]Attr
}

// NewTokenizer returns a Tokenizer reading from src.
func NewTokenizer(src []byte) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token, or false when the input is exhausted.
func (z *Tokenizer) Next() (Token, bool) {
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.rawtext != TagOther {
		return z.scanRawText(), true
	}
	if z.src[z.pos] == '<' {
		return z.scanTag(), true
	}
	return z.scanText(), true
}

func (z *Tokenizer) scanText() Token {
	start := z.pos
	if i := bytes.IndexByte(z.src[start:], '<'); i >= 0 {
		z.pos += i
	} else {
		z.pos = len(z.src)
	}
	return Token{Type: TextToken, Data: z.src[start:z.pos]}
}

// scanRawText consumes the content of a script/style element up to its
// close tag (or the end of input), returning it as a single text token.
// The close tag's name must end there: "</scripts>" is script content.
func (z *Tokenizer) scanRawText() Token {
	name := z.rawtext.String()
	z.rawtext = TagOther
	start := z.pos
	for {
		i := bytes.IndexByte(z.src[z.pos:], '<')
		if i < 0 {
			z.pos = len(z.src)
			break
		}
		z.pos += i
		if rest := z.src[z.pos+1:]; len(rest) > 0 && rest[0] == '/' && hasPrefixFold(rest[1:], name) {
			if after := rest[1+len(name):]; len(after) == 0 || isSpace(after[0]) || after[0] == '/' || after[0] == '>' {
				break
			}
		}
		z.pos++
	}
	return Token{Type: TextToken, Data: z.src[start:z.pos]}
}

func (z *Tokenizer) scanTag() Token {
	// invariant: src[pos] == '<'
	if z.pos+1 < len(z.src) {
		switch c := z.src[z.pos+1]; {
		case c == '!' || c == '?':
			return z.scanCommentOrDecl()
		case c == '/':
			return z.scanEndTag()
		case isNameStart(c):
			return z.scanStartTag()
		}
	}
	// A stray '<' is character data.
	z.pos++
	return Token{Type: TextToken, Data: z.src[z.pos-1 : z.pos]}
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

func (z *Tokenizer) scanCommentOrDecl() Token {
	rest := z.src[z.pos:]
	if bytes.HasPrefix(rest, []byte("<!--")) {
		body := rest[4:]
		if end := bytes.Index(body, []byte("-->")); end >= 0 {
			z.pos += 4 + end + 3
			body = body[:end]
		} else {
			z.pos = len(z.src)
		}
		return Token{Type: CommentToken, Data: body}
	}
	// <!doctype ...> or <? ... >: skip to '>'
	body := rest[1:]
	if end := bytes.IndexByte(body, '>'); end >= 0 {
		z.pos += 1 + end + 1
		body = body[:end]
	} else {
		z.pos = len(z.src)
	}
	return Token{Type: CommentToken, Data: body}
}

// scanName consumes a run of name characters and returns it.
func (z *Tokenizer) scanName() []byte {
	start := z.pos
	for z.pos < len(z.src) && isNameChar(z.src[z.pos]) {
		z.pos++
	}
	return z.src[start:z.pos]
}

func (z *Tokenizer) scanEndTag() Token {
	z.pos += 2 // consume "</"
	name := z.scanName()
	if i := bytes.IndexByte(z.src[z.pos:], '>'); i >= 0 {
		z.pos += i + 1
	} else {
		z.pos = len(z.src)
	}
	return Token{Type: EndTagToken, Tag: lookupTag(name), Data: name}
}

func (z *Tokenizer) scanStartTag() Token {
	z.pos++ // consume '<'
	name := z.scanName()
	tok := Token{Type: StartTagToken, Tag: lookupTag(name), Data: name}
	tok.Attrs = z.attrBuf[:0]
	for {
		z.skipSpace()
		if z.pos >= len(z.src) {
			break
		}
		c := z.src[z.pos]
		if c == '>' {
			z.pos++
			break
		}
		if c == '/' {
			z.pos++
			z.skipSpace()
			if z.pos < len(z.src) && z.src[z.pos] == '>' {
				z.pos++
				tok.Type = SelfClosingTag
				break
			}
			continue
		}
		if !isNameStart(c) {
			z.pos++
			continue
		}
		tok.Attrs = append(tok.Attrs, z.scanAttr())
	}
	if tok.Type == StartTagToken && (tok.Tag == TagScript || tok.Tag == TagStyle) {
		z.rawtext = tok.Tag
	}
	return tok
}

func (z *Tokenizer) scanAttr() Attr {
	a := Attr{Key: z.scanName()}
	z.skipSpace()
	if z.pos >= len(z.src) || z.src[z.pos] != '=' {
		return a
	}
	z.pos++
	z.skipSpace()
	if z.pos >= len(z.src) {
		return a
	}
	if q := z.src[z.pos]; q == '"' || q == '\'' {
		z.pos++
		vstart := z.pos
		if i := bytes.IndexByte(z.src[vstart:], q); i >= 0 {
			a.Val = z.src[vstart : vstart+i]
			z.pos = vstart + i + 1
		} else {
			a.Val = z.src[vstart:]
			z.pos = len(z.src)
		}
		return a
	}
	vstart := z.pos
	for z.pos < len(z.src) && !isSpace(z.src[z.pos]) && z.src[z.pos] != '>' {
		z.pos++
	}
	a.Val = z.src[vstart:z.pos]
	return a
}

func (z *Tokenizer) skipSpace() {
	for z.pos < len(z.src) && isSpace(z.src[z.pos]) {
		z.pos++
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// entities is the small set of named character references that 1990s pages
// actually used; numeric references are handled generically.
var entities = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": ' ', "copy": '©', "reg": '®', "middot": '·', "mdash": '—',
}

// maxEntity is the longest reference recognized, from '&' through ';'.
const maxEntity = 11

// entityAt decodes the character reference at the start of s, which
// begins with '&'. It returns the character and the length of the
// reference, or a zero length when s does not start with a known one.
// Names are matched without regard to ASCII case.
func entityAt[S string | []byte](s S) (rune, int) {
	end := -1
	for i := 1; i < len(s) && i < maxEntity; i++ {
		if s[i] == ';' {
			end = i
			break
		}
	}
	if end < 0 {
		return 0, 0
	}
	var buf [maxEntity]byte
	name := buf[:end-1]
	for i := range name {
		name[i] = lowerASCII(s[i+1])
	}
	if r, ok := entities[string(name)]; ok {
		return r, end + 1
	}
	if len(name) > 0 && name[0] == '#' {
		if r, ok := decodeNumeric(name[1:]); ok {
			return r, end + 1
		}
	}
	return 0, 0
}

// DecodeEntities replaces character entity references (&amp;, &#65;,
// &#x41;) with their characters. Unknown references pass through verbatim.
func DecodeEntities(s string) string {
	i := strings.IndexByte(s, '&')
	if i < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for ; i >= 0; i = strings.IndexByte(s, '&') {
		b.WriteString(s[:i])
		r, n := entityAt(s[i:])
		if n == 0 {
			b.WriteByte('&')
			n = 1
		} else {
			b.WriteRune(r)
		}
		s = s[i+n:]
	}
	b.WriteString(s)
	return b.String()
}

// appendDecoded is appendText over a run whose entities are still encoded.
// A decoded character passes through appendText like any other, so an
// &nbsp; or &#10; collapses with the whitespace around it.
func appendDecoded(b, run []byte) []byte {
	for {
		i := bytes.IndexByte(run, '&')
		if i < 0 {
			return appendText(b, run)
		}
		b = appendText(b, run[:i])
		r, n := entityAt(run[i:])
		if n == 0 {
			b = append(b, '&')
			n = 1
		} else {
			var enc [utf8.UTFMax]byte
			b = appendText(b, enc[:utf8.EncodeRune(enc[:], r)])
		}
		run = run[i+n:]
	}
}

// decodeNumeric reads the digits of a numeric reference (lower-cased, so
// hexadecimal is marked by 'x').
func decodeNumeric(s []byte) (rune, bool) {
	if len(s) == 0 {
		return 0, false
	}
	base := 10
	if s[0] == 'x' {
		base = 16
		s = s[1:]
	}
	var n int
	for _, c := range s {
		var d int
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int(c-'a') + 10
		default:
			return 0, false
		}
		n = n*base + d
		if n > 0x10FFFF {
			return 0, false
		}
	}
	return rune(n), true
}
