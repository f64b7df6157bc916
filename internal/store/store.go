package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sync"

	"webdis/internal/htmlx"
	"webdis/internal/relmodel"
)

// Per-site store files under Dir(root, site).
const (
	heapFile    = "tuples.heap" // slotted pages of encoded tuples
	catalogFile = "catalog.bin" // url → (start page, slot, record count)
	idxFile     = "text.idx"    // inverted index over text/title
)

const catalogMagic = "WDSCAT1\n"

// Options configure a Build or Open.
type Options struct {
	// PoolPages caps the buffer pool (0 = DefaultPoolPages).
	PoolPages int
	// NoTextIndex skips building (Build) or loading (Open) the inverted
	// text index; contains-predicates then always full-scan.
	NoTextIndex bool
	// Counters receive the store's I/O and index bookkeeping.
	Counters Counters
	// OnDoc, when set, is called once per document ingested by Build
	// with its raw content size — the server books Database Constructor
	// metrics (DocsParsed/DocBytes) through it, so a reopened store
	// parses nothing and books nothing.
	OnDoc func(url string, rawBytes int)
}

// docEntry locates one document's records in the heap.
type docEntry struct {
	url  string
	page uint32
	slot uint16
	nrec uint32
}

// Store is an opened per-site store. DB, and the databases it returns,
// are safe for concurrent use.
type Store struct {
	site string
	// closeMu lets Close wait out the relation loads in flight (they hold
	// it shared) before the heap file goes away; f is nil once closed.
	closeMu sync.RWMutex
	f       *os.File

	pool   *pool
	npages uint32
	docs   []docEntry
	byURL  map[string]int
	ix     *textIndex // nil when absent or disabled
	ctr    Counters

	staleMu sync.RWMutex
	dirty   map[int]bool // doc id → invalidated by a web mutation
}

// Dir is the directory holding site's store files under root.
func Dir(root, site string) string {
	return filepath.Join(root, url.PathEscape(site))
}

// Build ingests the site's documents — parse, build the virtual
// relations, serialize every tuple into slotted pages, index the text —
// writes heap, catalog and index to a temporary directory, fsyncs, and
// atomically renames it into place before reopening it. A crashed build
// leaves at worst a stale temp directory, never a half-visible store; a
// concurrent identical build loses the rename race and adopts the
// winner's files.
func Build(root, site string, urls []string, get func(string) ([]byte, error), o Options) (*Store, error) {
	dir := Dir(root, site)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(root, url.PathEscape(site)+".build-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	hf, err := os.Create(filepath.Join(tmp, heapFile))
	if err != nil {
		return nil, err
	}
	pw := newPageWriter(hf)
	ib := newIndexBuilder()
	docs := make([]docEntry, 0, len(urls))
	for i, u := range urls {
		content, err := get(u)
		if err != nil {
			hf.Close()
			return nil, fmt.Errorf("store: build %s: %w", u, err)
		}
		doc, err := htmlx.Parse(u, content)
		if err != nil {
			hf.Close()
			return nil, fmt.Errorf("store: build %s: %w", u, err)
		}
		if o.OnDoc != nil {
			o.OnDoc(u, len(content))
		}
		db := relmodel.Build(doc)
		de := docEntry{url: u}
		// Records go out in kind order — DOCUMENT, ANCHOR*, RELINFON* —
		// as one consecutive run the catalog locates by its first slot.
		for kind := relmodel.KindDocument; kind <= relmodel.KindRelInfon; kind++ {
			rel, err := db.Relation(relmodel.RelOfKind(kind))
			if err != nil {
				hf.Close()
				return nil, err
			}
			for _, t := range rel.Tuples {
				pg, sl, err := pw.append(relmodel.AppendTuple(nil, kind, t))
				if err != nil {
					hf.Close()
					return nil, err
				}
				if de.nrec == 0 {
					de.page, de.slot = pg, sl
				}
				de.nrec++
			}
		}
		docs = append(docs, de)
		if !o.NoTextIndex {
			ib.add(uint32(i), "text", doc.Text)
			ib.add(uint32(i), "title", doc.Title)
		}
	}
	npages, err := pw.finish()
	if err == nil {
		err = hf.Sync()
	}
	if cerr := hf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := writeFileSync(filepath.Join(tmp, catalogFile), encodeCatalog(npages, !o.NoTextIndex, docs)); err != nil {
		return nil, err
	}
	if !o.NoTextIndex {
		if err := writeFileSync(filepath.Join(tmp, idxFile), ib.encode()); err != nil {
			return nil, err
		}
	}
	if err := syncDir(tmp); err != nil {
		return nil, err
	}
	// Replace any previous build (e.g. one that failed verification).
	os.RemoveAll(dir)
	if err := os.Rename(tmp, dir); err != nil {
		// A concurrent builder renamed first; its store is equivalent
		// (same site, same source). Open the winner.
		if st, oerr := Open(root, site, o); oerr == nil {
			return st, nil
		}
		return nil, err
	}
	syncDir(root)
	return Open(root, site, o)
}

// Open loads the catalog and text index, verifies every heap page's
// checksum (the torn-write scan — the whole point of checksums is to
// refuse a silently damaged store at open, not mid-query), and hooks up
// the buffer pool. ErrNotBuilt signals an absent store; ErrCorrupt and
// ErrTruncated a damaged one — the caller's recovery is Build.
func Open(root, site string, o Options) (*Store, error) {
	dir := Dir(root, site)
	cb, err := os.ReadFile(filepath.Join(dir, catalogFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: no store for %s under %s", ErrNotBuilt, site, root)
	}
	if err != nil {
		return nil, err
	}
	npages, hasIndex, docs, err := decodeCatalog(cb)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, heapFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: heap file missing for %s", ErrNotBuilt, site)
	}
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() != int64(npages)*PageSize {
		f.Close()
		return nil, fmt.Errorf("%w: heap is %d bytes, catalog says %d pages", ErrTruncated, fi.Size(), npages)
	}
	if err := verifyHeap(f, npages); err != nil {
		f.Close()
		return nil, err
	}
	ctr := o.Counters.norm()
	s := &Store{
		site: site, f: f,
		pool:   newPool(f, npages, o.PoolPages, ctr),
		npages: npages,
		docs:   docs,
		byURL:  make(map[string]int, len(docs)),
		ctr:    ctr,
	}
	for i, d := range docs {
		s.byURL[d.url] = i
	}
	if hasIndex && !o.NoTextIndex {
		ixb, err := os.ReadFile(filepath.Join(dir, idxFile))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("%w: text index unreadable: %v", ErrTruncated, err)
		}
		if s.ix, err = decodeTextIndex(ixb, ctr.IndexHits); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// verifyHeap checks every page checksum sequentially.
func verifyHeap(f *os.File, npages uint32) error {
	buf := make([]byte, PageSize)
	for pg := uint32(0); pg < npages; pg++ {
		if _, err := f.ReadAt(buf, int64(pg)*PageSize); err != nil {
			return fmt.Errorf("%w: page %d unreadable: %v", ErrTruncated, pg, err)
		}
		if err := verifyPage(buf); err != nil {
			return fmt.Errorf("page %d: %w", pg, err)
		}
	}
	return nil
}

// Docs is the number of stored documents.
func (s *Store) Docs() int { return len(s.docs) }

// Pages is the heap-file page count.
func (s *Store) Pages() uint32 { return s.npages }

// Indexed reports whether the text index is loaded.
func (s *Store) Indexed() bool { return s.ix != nil }

// Resident is the buffer pool's current frame count (tests reconcile it
// against reads minus evictions).
func (s *Store) Resident() int { return s.pool.resident() }

// Invalidate marks one document stale after a web mutation: DB returns
// ErrStale for it from now on (the server's recovery is a live
// read-through) and its text-index postings stop matching. Only the
// touched entry is invalidated — the heap, catalog and every other
// document's postings stay live, so there is no store rebuild. Returns
// false when the URL is not in this store (e.g. a freshly born page) or
// was already stale.
func (s *Store) Invalidate(u string) bool {
	i, ok := s.byURL[u]
	if !ok {
		return false
	}
	s.staleMu.Lock()
	if s.dirty == nil {
		s.dirty = make(map[int]bool)
	}
	was := s.dirty[i]
	s.dirty[i] = true
	s.staleMu.Unlock()
	if !was && s.ix != nil {
		s.ix.invalidate(uint32(i))
	}
	return !was
}

// Stale reports whether the document has been invalidated.
func (s *Store) Stale(u string) bool {
	i, ok := s.byURL[u]
	if !ok {
		return false
	}
	s.staleMu.RLock()
	defer s.staleMu.RUnlock()
	return s.dirty[i]
}

// DB returns the virtual-relation database of one document — the
// persistent Database Constructor. The handle is pull-based: it carries
// the text-index oracle (when the index is loaded) and reads a relation
// out of the heap only when relmodel.DB.Relation first asks for it, so a
// node whose predicates the index decides false touches no page, and a
// node that only routes reads its ANCHOR tuples and nothing else. Every
// relation is value-equal to relmodel.Build's over the parsed document.
func (s *Store) DB(u string) (*relmodel.DB, error) {
	i, ok := s.byURL[u]
	if !ok {
		return nil, fmt.Errorf("%w: site %s has no document %s", ErrUnknownDoc, s.site, u)
	}
	s.staleMu.RLock()
	stale := s.dirty[i]
	s.staleMu.RUnlock()
	if stale {
		return nil, fmt.Errorf("%w: %s at site %s", ErrStale, u, s.site)
	}
	var text relmodel.TextOracle
	if s.ix != nil {
		text = docOracle{ix: s.ix, id: uint32(i)}
	}
	return relmodel.NewLazy(func(kind byte) ([]relmodel.Tuple, error) { return s.load(i, kind) }, text), nil
}

// load reads the tuples of one relation of document i: a walk over the
// document's record run that materialises the records of that kind and
// steps over the others.
func (s *Store) load(i int, kind byte) ([]relmodel.Tuple, error) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.f == nil {
		return nil, fmt.Errorf("%w: site %s", ErrClosed, s.site)
	}
	de := s.docs[i]
	c := cursor{pool: s.pool, page: de.page, slot: int(de.slot)}
	defer c.release()
	var out []relmodel.Tuple
	for k := uint32(0); k < de.nrec; k++ {
		t, ok, err := c.next(kind)
		if err != nil {
			return nil, fmt.Errorf("store: %s record %d: %w", de.url, k, err)
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

// Close releases the heap file once the relation loads in flight have
// finished. Relations already materialised stay valid (their tuples are
// copies); one first opened afterwards — databases outlive the store in
// the server's cache, and DB itself reads nothing — fails with ErrClosed.
func (s *Store) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// cursor walks a run of consecutive records in heap order through the
// buffer pool. It keeps the data page it stands on pinned between
// records and pins overflow pages one at a time.
type cursor struct {
	pool *pool
	page uint32
	slot int
	fr   *frame // page, pinned, once the cursor has looked at it
}

// scratch holds the buffers spanned records are assembled in before
// their one exact-sized copy into a string.
var scratch = sync.Pool{New: func() any { b := make([]byte, 0, 4*PageSize); return &b }}

// release unpins the cursor's data page.
func (c *cursor) release() {
	if c.fr != nil {
		c.pool.unpin(c.fr)
		c.fr = nil
	}
}

// next steps over one record. A record of relation kind want is
// materialised — one copy of its bytes out of the pinned pages, its
// fields substrings of that copy — and returned with ok. Any other is
// skipped by its kind byte alone: not decoded, not copied, but a spanned
// one's overflow chain is still walked page by page, so every page of
// the run is pinned and checksum-verified whichever relation is read.
func (c *cursor) next(want byte) (t relmodel.Tuple, ok bool, err error) {
	if c.fr == nil {
		fr, err := c.pool.get(c.page)
		if err != nil {
			return nil, false, err
		}
		if pageKind(fr.buf) != kindDataPage {
			c.pool.unpin(fr)
			return nil, false, fmt.Errorf("%w: record cursor on non-data page %d", ErrCorrupt, c.page)
		}
		c.fr = fr
	}
	p := c.fr.buf
	off, length, spilled, err := pageSlot(p, c.slot)
	if err != nil {
		return nil, false, err
	}
	if length == 0 || relmodel.RelOfKind(p[off]) == "" {
		return nil, false, fmt.Errorf("%w: page %d slot %d: no record kind", ErrCorrupt, c.page, c.slot)
	}
	at, keep := c.page, p[off] == want
	var rec string
	if spilled {
		if rec, err = c.spanned(p[off:off+length], keep); err != nil {
			return nil, false, err
		}
	} else {
		if keep {
			rec = string(p[off : off+length])
		}
		if c.slot++; c.slot >= pageNSlots(p) {
			c.release()
			c.page, c.slot = c.page+1, 0
		}
	}
	if !keep {
		return nil, false, nil
	}
	_, t, n, err := relmodel.DecodeTuple(rec)
	if err == nil && n != len(rec) {
		err = fmt.Errorf("%w: record slack", ErrCorrupt)
	}
	if err != nil {
		return nil, false, fmt.Errorf("record at page %d: %w", at, err)
	}
	return t, true, nil
}

// spanned follows the overflow chain of the spanned record whose head
// fragment ends the cursor's data page (by construction its last slot)
// and leaves the cursor on the page after the chain. With keep the
// record is assembled in a scratch buffer and copied out once.
func (c *cursor) spanned(head []byte, keep bool) (rec string, err error) {
	var body []byte
	var bufp *[]byte
	if keep {
		bufp = scratch.Get().(*[]byte)
		body = append((*bufp)[:0], head...)
	}
	c.release()
	next := c.page + 1
	for more := true; more; next++ {
		fr, err := c.pool.get(next)
		if err != nil {
			return "", err
		}
		frag, continues, err := overflowFrag(fr.buf)
		if err == nil && keep {
			body = append(body, frag...)
		}
		c.pool.unpin(fr)
		if err != nil {
			return "", fmt.Errorf("page %d: %w", next, err)
		}
		more = continues
	}
	c.page, c.slot = next, 0
	if keep {
		rec = string(body)
		*bufp = body
		scratch.Put(bufp)
	}
	return rec, nil
}

// encodeCatalog renders the catalog file: magic, geometry, index flag,
// per-document locators, CRC32-C trailer.
func encodeCatalog(npages uint32, hasIndex bool, docs []docEntry) []byte {
	out := []byte(catalogMagic)
	out = binary.AppendUvarint(out, PageSize)
	out = binary.AppendUvarint(out, uint64(npages))
	if hasIndex {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = binary.AppendUvarint(out, uint64(len(docs)))
	for _, d := range docs {
		out = appendString(out, d.url)
		out = binary.AppendUvarint(out, uint64(d.page))
		out = binary.AppendUvarint(out, uint64(d.slot))
		out = binary.AppendUvarint(out, uint64(d.nrec))
	}
	crc := crc32.Checksum(out, castagnoli)
	return binary.LittleEndian.AppendUint32(out, crc)
}

func decodeCatalog(b []byte) (npages uint32, hasIndex bool, docs []docEntry, err error) {
	if len(b) < len(catalogMagic)+4 {
		return 0, false, nil, fmt.Errorf("%w: catalog too short", ErrTruncated)
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return 0, false, nil, fmt.Errorf("%w: catalog checksum mismatch", ErrCorrupt)
	}
	if string(body[:len(catalogMagic)]) != catalogMagic {
		return 0, false, nil, fmt.Errorf("%w: bad catalog magic", ErrCorrupt)
	}
	r := &byteReader{b: body, pos: len(catalogMagic)}
	if ps := r.uvarint(); r.err == nil && ps != PageSize {
		return 0, false, nil, fmt.Errorf("%w: catalog page size %d, want %d", ErrCorrupt, ps, PageSize)
	}
	np := r.uvarint()
	hasIndex = r.byte() == 1
	ndocs := r.uvarint()
	for i := uint64(0); i < ndocs && r.err == nil; i++ {
		d := docEntry{url: r.str()}
		d.page = uint32(r.uvarint())
		d.slot = uint16(r.uvarint())
		d.nrec = uint32(r.uvarint())
		docs = append(docs, d)
	}
	if r.err != nil {
		return 0, false, nil, fmt.Errorf("%w: catalog body: %v", ErrCorrupt, r.err)
	}
	return uint32(np), hasIndex, docs, nil
}

func writeFileSync(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable (best-effort on platforms where directories reject Sync).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, io.EOF) {
		// Some filesystems refuse fsync on directories; that only costs
		// durability of the rename, never consistency.
		return nil
	}
	return nil
}
