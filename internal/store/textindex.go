package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"webdis/internal/index"
)

// The text index maps (field, token) → ascending document ids, where the
// tokens are index.Tokenize over strings.ToLower of the field value —
// exactly the maximal [a-z0-9] runs (length ≥ 2) of the lower-cased text
// the evaluator's `contains` scans. That choice makes the index an exact
// oracle for a restricted literal class instead of an approximation:
//
// `x contains lit` is strings.Contains(ToLower(x), ToLower(lit)). When
// ToLower(lit) is length ≥ 2 and entirely [a-z0-9], any occurrence in
// ToLower(x) lies within one maximal alphanumeric run (ASCII bytes never
// occur inside multi-byte UTF-8 sequences), and those runs are exactly
// the indexed tokens. So: hit ⇔ some indexed token of the document
// contains the literal as a substring. Literals outside that class
// (too short, spaces, punctuation, non-ASCII) are declined — decided =
// false — and the evaluator falls back to the full scan, keeping answers
// byte-identical in every case.
//
// Indexed fields are the document tuple's "text" and "title" columns.

const textIndexMagic = "WDSIDX1\n"

// memoCap bounds the per-literal match-set memo (reset when exceeded).
const memoCap = 1024

// indexBuilder accumulates postings during a build.
type indexBuilder struct {
	fields map[string]map[string][]uint32
}

func newIndexBuilder() *indexBuilder {
	return &indexBuilder{fields: map[string]map[string][]uint32{
		"text": {}, "title": {},
	}}
}

// add indexes one field of one document. Documents must be added in
// ascending id order (the builder appends).
func (b *indexBuilder) add(id uint32, field, text string) {
	terms := b.fields[field]
	for _, tok := range index.Tokenize(strings.ToLower(text)) {
		post, ok := terms[tok]
		if len(post) > 0 && post[len(post)-1] == id {
			continue // already posted for this document
		}
		if !ok {
			// A token may view the page's pooled text (ToLower hands back
			// text that has no upper case): a new term keeps a copy.
			tok = strings.Clone(tok)
		}
		terms[tok] = append(post, id)
	}
}

// encode renders the index file body (magic .. postings) with a CRC32-C
// trailer.
func (b *indexBuilder) encode() []byte {
	out := []byte(textIndexMagic)
	fields := make([]string, 0, len(b.fields))
	for f := range b.fields {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	out = binary.AppendUvarint(out, uint64(len(fields)))
	for _, f := range fields {
		out = appendString(out, f)
		terms := make([]string, 0, len(b.fields[f]))
		for t := range b.fields[f] {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		out = binary.AppendUvarint(out, uint64(len(terms)))
		for _, t := range terms {
			out = appendString(out, t)
			post := b.fields[f][t]
			out = binary.AppendUvarint(out, uint64(len(post)))
			prev := uint32(0)
			for i, id := range post {
				if i == 0 {
					out = binary.AppendUvarint(out, uint64(id))
				} else {
					out = binary.AppendUvarint(out, uint64(id-prev))
				}
				prev = id
			}
		}
	}
	crc := crc32.Checksum(out, castagnoli)
	return binary.LittleEndian.AppendUint32(out, crc)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// textIndex is the opened, in-memory form. Term dictionaries for the
// synthetic webs are small (hundreds of tokens), so the whole index
// loads at open; the heap pages stay on disk behind the pool.
type textIndex struct {
	fields map[string]map[string][]uint32
	hits   *atomic.Int64

	mu   sync.Mutex
	memo map[string]map[uint32]bool // field\x00literal → matching doc ids
	dead map[uint32]bool            // invalidated doc ids (stale postings)
}

// invalidate retires one document's postings: the id is dropped from
// every memoized match set and excluded from future ones. The posting
// lists themselves are left in place (they are shared, delta-encoded
// history) — the dead set filters them at match time, so invalidation
// touches only the one entry, never the index structure.
func (ix *textIndex) invalidate(id uint32) {
	ix.mu.Lock()
	if ix.dead == nil {
		ix.dead = make(map[uint32]bool)
	}
	ix.dead[id] = true
	for _, set := range ix.memo {
		delete(set, id)
	}
	ix.mu.Unlock()
}

func decodeTextIndex(b []byte, hits *atomic.Int64) (*textIndex, error) {
	if len(b) < len(textIndexMagic)+4 {
		return nil, fmt.Errorf("%w: text index too short", ErrTruncated)
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: text index checksum mismatch", ErrCorrupt)
	}
	if string(body[:len(textIndexMagic)]) != textIndexMagic {
		return nil, fmt.Errorf("%w: bad text index magic", ErrCorrupt)
	}
	r := &byteReader{b: body, pos: len(textIndexMagic)}
	ix := &textIndex{fields: map[string]map[string][]uint32{}, hits: hits, memo: map[string]map[uint32]bool{}}
	nfields := r.uvarint()
	for i := uint64(0); i < nfields && r.err == nil; i++ {
		field := r.str()
		nterms := r.uvarint()
		if nterms > uint64(r.rest()) { // each term costs ≥ 1 byte
			r.err = fmt.Errorf("term count %d overruns buffer", nterms)
			break
		}
		terms := make(map[string][]uint32, nterms)
		for j := uint64(0); j < nterms && r.err == nil; j++ {
			term := r.str()
			npost := r.uvarint()
			if npost > uint64(r.rest()) { // each posting costs ≥ 1 byte
				r.err = fmt.Errorf("posting count %d overruns buffer", npost)
				break
			}
			post := make([]uint32, 0, npost)
			prev := uint64(0)
			for k := uint64(0); k < npost && r.err == nil; k++ {
				d := r.uvarint()
				if k == 0 {
					prev = d
				} else {
					prev += d
				}
				post = append(post, uint32(prev))
			}
			terms[term] = post
		}
		ix.fields[field] = terms
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: text index body: %v", ErrCorrupt, r.err)
	}
	return ix, nil
}

// indexableLit reports whether the lowered literal is within the class
// the index decides exactly: length ≥ 2, all [a-z0-9].
func indexableLit(lower string) bool {
	if len(lower) < 2 {
		return false
	}
	for i := 0; i < len(lower); i++ {
		c := lower[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// matchContains answers `<field> contains <lit>` for document id, or
// declines (decided = false) for literals outside the indexed class.
func (ix *textIndex) matchContains(field string, id uint32, lit string) (hit, decided bool) {
	lower := strings.ToLower(lit)
	if !indexableLit(lower) {
		return false, false
	}
	terms, ok := ix.fields[field]
	if !ok {
		return false, false
	}
	key := field + "\x00" + lower
	ix.mu.Lock()
	set, ok := ix.memo[key]
	if !ok {
		// Substring-of-token matching: scan the (small) term dictionary
		// once per distinct literal, union the posting lists, memoize.
		set = make(map[uint32]bool)
		for term, post := range terms {
			if strings.Contains(term, lower) {
				for _, d := range post {
					if !ix.dead[d] {
						set[d] = true
					}
				}
			}
		}
		if len(ix.memo) >= memoCap {
			ix.memo = make(map[string]map[uint32]bool)
		}
		ix.memo[key] = set
	}
	hit = set[id]
	ix.mu.Unlock()
	ix.hits.Add(1)
	return hit, true
}

// docOracle adapts the index to relmodel.TextOracle for one document.
type docOracle struct {
	ix *textIndex
	id uint32
}

func (o docOracle) MatchContains(col, lit string) (bool, bool) {
	switch strings.ToLower(col) {
	case "text", "title":
		return o.ix.matchContains(strings.ToLower(col), o.id, lit)
	}
	return false, false
}

// byteReader is a tiny error-sticky varint reader for the catalog and
// index files.
type byteReader struct {
	b   []byte
	pos int
	err error
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.err = fmt.Errorf("bad varint at %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *byteReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)-r.pos) < n {
		r.err = fmt.Errorf("string overruns buffer at %d", r.pos)
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *byteReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.err = fmt.Errorf("unexpected end at %d", r.pos)
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

func (r *byteReader) rest() int { return len(r.b) - r.pos }
