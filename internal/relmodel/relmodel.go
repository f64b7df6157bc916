// Package relmodel implements the relational document model of the WEBDIS
// paper (Section 2.2): every web resource is exposed to node-queries as
// tuples of three "virtual" relations,
//
//	DOCUMENT(url, title, text, length)   — one tuple per document
//	ANCHOR(label, base, href, ltype)     — one tuple per hyperlink
//	RELINFON(delimiter, url, text, length) — one tuple per rel-infon
//
// DOCUMENT and ANCHOR follow Mendelzon, Mihaila and Milo's WebSQL model;
// RELINFON is the paper's addition carrying Lakshmanan et al.'s rel-infon
// construct. A query-server materializes these relations in memory for the
// duration of one node-query (the paper's Database Constructor, Section
// 4.4) and purges them afterwards.
package relmodel

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"webdis/internal/htmlx"
)

// Relation names.
const (
	RelDocument = "document"
	RelAnchor   = "anchor"
	RelRelInfon = "relinfon"
)

// Schemas of the three virtual relations, keyed by relation name.
var Schemas = map[string][]string{
	RelDocument: {"url", "title", "text", "length"},
	RelAnchor:   {"label", "base", "href", "ltype"},
	RelRelInfon: {"delimiter", "url", "text", "length"},
}

// Tuple is one row of a virtual relation. All attributes are strings; the
// numeric length attributes are rendered in decimal and compared
// numerically by the predicate evaluator when both operands are numeric.
type Tuple []string

// Relation is an in-memory instance of one virtual relation.
type Relation struct {
	Name   string
	Cols   []string
	Tuples []Tuple
}

// Col returns the index of the named column, or -1.
func (r *Relation) Col(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// TextOracle answers `contains` predicates over a document's text
// columns from an index instead of a full text scan. MatchContains asks
// whether this DB's document tuple satisfies `<col> contains <lit>`
// (case-insensitive substring, exactly the evaluator's semantics).
// decided reports whether the oracle can answer at all; when false the
// evaluator must fall back to scanning the column value, so an oracle is
// always free to decline (unknown column, literal outside the indexed
// alphabet). The persistent site store attaches one per document.
type TextOracle interface {
	MatchContains(col, lit string) (hit, decided bool)
}

// DB is the temporary database a query-server constructs for one node
// evaluation. It is pull-based: a relation is materialised the first
// time Relation asks for it, so an evaluation pays only for the
// relations it opens. Build's in-RAM databases are simply already
// materialised; the persistent store's (NewLazy) read a relation's
// tuples out of its heap pages on first use. A *DB is safe for
// concurrent use — coalesced evaluations of one node share one handle
// and one load per relation.
type DB struct {
	// Text, when non-nil, answers contains-predicates over the document
	// tuple's text/title columns from a persisted index (see TextOracle).
	// Purely an accelerator: a nil oracle changes nothing.
	Text TextOracle

	// load reads the tuples of one relation (by codec kind byte) from
	// backing storage; nil when there is none (Build fills rels itself).
	load func(kind byte) ([]Tuple, error)
	rels [len(kinds)]lazyRelation
}

// lazyRelation is one relation slot of a DB. mu serialises the first
// load; a failed load is not remembered, so a transient storage error
// (an exhausted buffer pool) does not poison a retained handle.
type lazyRelation struct {
	mu  sync.Mutex
	rel atomic.Pointer[Relation]
}

// kinds names the relations in codec kind order (index = kind byte - 1).
var kinds = [...]string{RelDocument, RelAnchor, RelRelInfon}

func newRelation(kind byte, tuples []Tuple) *Relation {
	name := kinds[kind-1]
	return &Relation{Name: name, Cols: Schemas[name], Tuples: tuples}
}

// NewLazy returns a DB whose relations are read through load the first
// time each is opened. load is called at most once at a time per
// relation and, once it succeeds, never again for that relation.
func NewLazy(load func(kind byte) ([]Tuple, error), text TextOracle) *DB {
	return &DB{Text: text, load: load}
}

// Relation returns the named virtual relation, materialising it on
// first use. It fails for an unknown name, or with the backing store's
// error when the relation cannot be read (e.g. store.ErrClosed).
func (db *DB) Relation(name string) (*Relation, error) {
	lower := strings.ToLower(name)
	for i := range kinds {
		if kinds[i] == lower {
			return db.relation(byte(i + 1))
		}
	}
	return nil, fmt.Errorf("relmodel: unknown virtual relation %q", name)
}

func (db *DB) relation(kind byte) (*Relation, error) {
	r := &db.rels[kind-1]
	if rel := r.rel.Load(); rel != nil {
		return rel, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rel := r.rel.Load(); rel != nil {
		return rel, nil
	}
	var tuples []Tuple // the zero DB has three empty relations
	if db.load != nil {
		var err error
		if tuples, err = db.load(kind); err != nil {
			return nil, err
		}
	}
	rel := newRelation(kind, tuples)
	r.rel.Store(rel)
	return rel, nil
}

// built is what Build allocates besides the tuples: the DB and its three
// relations, in one object.
type built struct {
	db   DB
	rels [len(kinds)]Relation
}

// Build is the Database Constructor: a single pass over the analyzed
// document populates all three virtual relations (paper Section 4.4, item
// 5). The caller discards the DB when the node-query finishes.
//
// All four columns of every row share one []string slab, and the rows
// one []Tuple: each tuple is a capacity-capped window of the slab, so an
// append to one could never reach into the next.
func Build(doc *htmlx.Document) *DB {
	const arity = 4 // every virtual relation has four columns
	rows := 1 + len(doc.Anchors) + len(doc.Infons)
	cells := make([]string, arity*rows)
	tuples := make([]Tuple, rows)
	for i := range tuples {
		tuples[i] = cells[arity*i : arity*(i+1) : arity*(i+1)]
	}
	copy(tuples[0], []string{doc.URL, doc.Title, doc.Text, strconv.Itoa(doc.Length)})
	for i, a := range doc.Anchors {
		copy(tuples[1+i], []string{a.Label, a.Base, a.Href, a.Type.String()})
	}
	for i, r := range doc.Infons {
		copy(tuples[1+len(doc.Anchors)+i], []string{r.Delimiter, doc.URL, r.Text, strconv.Itoa(len(r.Text))})
	}
	b := &built{}
	split := [len(kinds) + 1]int{0, 1, 1 + len(doc.Anchors), rows}
	for i := range kinds {
		rel := &b.rels[i]
		*rel = Relation{Name: kinds[i], Cols: Schemas[kinds[i]]}
		if part := tuples[split[i]:split[i+1]:split[i+1]]; len(part) > 0 {
			rel.Tuples = part
		}
		b.db.rels[i].rel.Store(rel)
	}
	return &b.db
}

// Size returns the total number of tuples across the three relations,
// materialising all of them.
func (db *DB) Size() (int, error) {
	n := 0
	for i := range kinds {
		rel, err := db.relation(byte(i + 1))
		if err != nil {
			return 0, err
		}
		n += len(rel.Tuples)
	}
	return n, nil
}
