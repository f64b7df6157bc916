// Package store is the persistent site storage subsystem: a per-site
// heap file of fixed-size slotted pages holding the serialized tuples of
// the site's virtual relations (relmodel's codec), a fixed-capacity
// buffer pool with pin counts and LRU eviction, page checksums with
// torn-write detection at open, and a persisted inverted index over
// document text that answers `contains` predicates by posting-list
// lookup instead of a full text scan.
//
// A store is built once from the site's documents (webgen -out, or
// lazily by the first query-server start against an empty directory),
// fsynced and atomically renamed into place, then reopened across
// restarts — cold start is open-not-rebuild. The server plugs it in
// under ServerOptions.Store; the zero value keeps the in-RAM Database
// Constructor behaviour byte for byte.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// PageSize is the fixed on-disk page size of the heap file.
const PageSize = 4096

// Page layout. A data page is
//
//	[0:2)  magic 0x5744 ("WD", little-endian)
//	[2]    kind (data=1, overflow=2)
//	[3]    flags (overflow: bit0 = record continues on the next page)
//	[4:8)  CRC32-C of the page with this field zeroed
//	[8:10) data: slot count; overflow: fragment length
//	[10:12) data: free-space offset (next record byte); overflow: 0
//	[12:...) record bytes, growing forward
//	[...:PageSize) slot directory, growing backward: 4 bytes per slot,
//	        offset uint16 | length uint16; the length's high bit marks a
//	        record whose tail continues in the following overflow pages.
//
// A record larger than one page occupies the final slot of its data page
// and spills into consecutive overflow pages; readers follow the
// continues flag, so no total-length field is needed (the tuple codec is
// self-delimiting and the fragment chain is explicit).
const (
	pageMagic      = 0x5744
	pageHeaderSize = 12
	slotSize       = 4

	kindDataPage     = 1
	kindOverflowPage = 2

	flagContinues = 0x01

	slotLenMask  = 0x7fff
	slotSpilled  = 0x8000
	overflowCap  = PageSize - pageHeaderSize
	minFragBytes = 16 // start a spanned record only with this much room
)

// Typed failures. Callers branch on these with errors.Is.
var (
	// ErrNotBuilt: no store exists at the given directory (build one).
	ErrNotBuilt = errors.New("store: not built")
	// ErrCorrupt: a checksum or structural invariant failed — a torn
	// write or bit rot. Recovery policy is rebuild-from-source.
	ErrCorrupt = errors.New("store: corrupt")
	// ErrTruncated: a file is shorter than its catalog says.
	ErrTruncated = errors.New("store: truncated")
	// ErrPoolExhausted: every buffer-pool frame is pinned.
	ErrPoolExhausted = errors.New("store: buffer pool exhausted")
	// ErrStale: the document was invalidated by a web mutation after the
	// store was built. Recovery is a live read-through (fetch + parse),
	// not a store rebuild — only the touched entry is stale.
	ErrStale = errors.New("store: stale")
	// ErrClosed: the store was closed before the relation (or database)
	// was asked for. Relations materialised earlier stay readable.
	ErrClosed = errors.New("store: closed")
	// ErrUnknownDoc: the store has no entry for the URL — typically a
	// page born after the build. Recovery is the same live read-through.
	ErrUnknownDoc = errors.New("store: unknown document")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pageChecksum computes the page CRC with the checksum field zeroed.
func pageChecksum(p []byte) uint32 {
	c := crc32.Update(0, castagnoli, p[:4])
	var zero [4]byte
	c = crc32.Update(c, castagnoli, zero[:])
	return crc32.Update(c, castagnoli, p[8:])
}

// sealPage stamps the checksum into a finished page.
func sealPage(p []byte) {
	binary.LittleEndian.PutUint32(p[4:8], pageChecksum(p))
}

// verifyPage checks magic, kind and checksum — the torn-write detector.
func verifyPage(p []byte) error {
	if len(p) != PageSize {
		return fmt.Errorf("%w: short page", ErrTruncated)
	}
	if binary.LittleEndian.Uint16(p[0:2]) != pageMagic {
		return fmt.Errorf("%w: bad page magic", ErrCorrupt)
	}
	if k := p[2]; k != kindDataPage && k != kindOverflowPage {
		return fmt.Errorf("%w: unknown page kind %d", ErrCorrupt, k)
	}
	if got := binary.LittleEndian.Uint32(p[4:8]); got != pageChecksum(p) {
		return fmt.Errorf("%w: page checksum mismatch", ErrCorrupt)
	}
	return nil
}

func pageKind(p []byte) byte { return p[2] }

func pageNSlots(p []byte) int { return int(binary.LittleEndian.Uint16(p[8:10])) }

// pageSlot reads slot i of a data page with bounds checks.
func pageSlot(p []byte, i int) (off, length int, spilled bool, err error) {
	n := pageNSlots(p)
	if i < 0 || i >= n {
		return 0, 0, false, fmt.Errorf("%w: slot %d of %d", ErrCorrupt, i, n)
	}
	base := PageSize - (i+1)*slotSize
	off = int(binary.LittleEndian.Uint16(p[base : base+2]))
	raw := binary.LittleEndian.Uint16(p[base+2 : base+4])
	length = int(raw & slotLenMask)
	spilled = raw&slotSpilled != 0
	if off < pageHeaderSize || off+length > PageSize-n*slotSize {
		return 0, 0, false, fmt.Errorf("%w: slot %d outside page bounds", ErrCorrupt, i)
	}
	return off, length, spilled, nil
}

// overflowFrag returns an overflow page's fragment and whether the
// record continues on the following page.
func overflowFrag(p []byte) (frag []byte, continues bool, err error) {
	if pageKind(p) != kindOverflowPage {
		return nil, false, fmt.Errorf("%w: expected overflow page", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(p[8:10]))
	if n > overflowCap {
		return nil, false, fmt.Errorf("%w: overflow fragment overruns page", ErrCorrupt)
	}
	return p[pageHeaderSize : pageHeaderSize+n], p[3]&flagContinues != 0, nil
}

// pageWriter appends records to a growing heap file, sealing and writing
// each 4 KiB page as it fills. It is the build-time half of the heap;
// reads go through the buffer pool.
type pageWriter struct {
	w      io.Writer
	page   [PageSize]byte
	nslots int
	free   int // next record byte
	filled bool
	pages  uint32 // pages written so far
}

func newPageWriter(w io.Writer) *pageWriter {
	pw := &pageWriter{w: w}
	pw.reset()
	return pw
}

func (pw *pageWriter) reset() {
	for i := range pw.page {
		pw.page[i] = 0
	}
	binary.LittleEndian.PutUint16(pw.page[0:2], pageMagic)
	pw.page[2] = kindDataPage
	pw.nslots, pw.free, pw.filled = 0, pageHeaderSize, false
}

// room is the payload space left on the current page if one more slot is
// added.
func (pw *pageWriter) room() int {
	return PageSize - pw.free - (pw.nslots+1)*slotSize
}

func (pw *pageWriter) putSlot(off, length int, spilled bool) {
	base := PageSize - (pw.nslots+1)*slotSize
	binary.LittleEndian.PutUint16(pw.page[base:base+2], uint16(off))
	raw := uint16(length)
	if spilled {
		raw |= slotSpilled
	}
	binary.LittleEndian.PutUint16(pw.page[base+2:base+4], raw)
	pw.nslots++
	binary.LittleEndian.PutUint16(pw.page[8:10], uint16(pw.nslots))
	binary.LittleEndian.PutUint16(pw.page[10:12], uint16(pw.free))
}

func (pw *pageWriter) flushData() error {
	if !pw.filled && pw.nslots == 0 {
		return nil
	}
	sealPage(pw.page[:])
	if _, err := pw.w.Write(pw.page[:]); err != nil {
		return err
	}
	pw.pages++
	pw.reset()
	return nil
}

func (pw *pageWriter) writeOverflow(frag []byte, continues bool) error {
	var p [PageSize]byte
	binary.LittleEndian.PutUint16(p[0:2], pageMagic)
	p[2] = kindOverflowPage
	if continues {
		p[3] = flagContinues
	}
	binary.LittleEndian.PutUint16(p[8:10], uint16(len(frag)))
	copy(p[pageHeaderSize:], frag)
	sealPage(p[:])
	if _, err := pw.w.Write(p[:]); err != nil {
		return err
	}
	pw.pages++
	return nil
}

// append stores one encoded record and returns the (page, slot) it
// landed in.
func (pw *pageWriter) append(body []byte) (page uint32, slot uint16, err error) {
	if pw.nslots > 0 && pw.room() < minFragBytes {
		if err := pw.flushData(); err != nil {
			return 0, 0, err
		}
	}
	// A record that would span but fits a fresh page whole gets one.
	if pw.nslots > 0 && len(body) > pw.room() && len(body) <= PageSize-pageHeaderSize-slotSize {
		if err := pw.flushData(); err != nil {
			return 0, 0, err
		}
	}
	page, slot = pw.pages, uint16(pw.nslots)
	if len(body) <= pw.room() {
		copy(pw.page[pw.free:], body)
		pw.putSlot(pw.free, len(body), false)
		pw.free += len(body)
		pw.filled = true
		return page, slot, nil
	}
	// Spanned record: head fragment fills this page, tail spills into
	// consecutive overflow pages.
	head := pw.room()
	copy(pw.page[pw.free:], body[:head])
	pw.putSlot(pw.free, head, true)
	pw.free += head
	pw.filled = true
	if err := pw.flushData(); err != nil {
		return 0, 0, err
	}
	rest := body[head:]
	for len(rest) > 0 {
		n := len(rest)
		if n > overflowCap {
			n = overflowCap
		}
		if err := pw.writeOverflow(rest[:n], len(rest) > n); err != nil {
			return 0, 0, err
		}
		rest = rest[n:]
	}
	return page, slot, nil
}

// finish seals the trailing partial page and reports the page count.
func (pw *pageWriter) finish() (uint32, error) {
	if err := pw.flushData(); err != nil {
		return 0, err
	}
	return pw.pages, nil
}
