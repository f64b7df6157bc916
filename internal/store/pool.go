package store

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// DefaultPoolPages is the buffer-pool capacity when Options.PoolPages is
// zero: 256 pages = 1 MiB resident, independent of heap-file size.
const DefaultPoolPages = 256

// Counters lets the store book its I/O into the owner's metrics (the
// server points these at its Metrics fields). Nil pointers are replaced
// by private sinks, so the zero value is usable.
type Counters struct {
	PagesRead    *atomic.Int64 // disk page reads (buffer-pool misses)
	PagesEvicted *atomic.Int64 // unpinned frames dropped to make room
	IndexHits    *atomic.Int64 // contains-predicates decided by the text index
}

func (c Counters) norm() Counters {
	if c.PagesRead == nil {
		c.PagesRead = new(atomic.Int64)
	}
	if c.PagesEvicted == nil {
		c.PagesEvicted = new(atomic.Int64)
	}
	if c.IndexHits == nil {
		c.IndexHits = new(atomic.Int64)
	}
	return c
}

// frame is one resident page. pin counts current users; a frame is on
// the eviction list (linked through prev/next) only at pin 0. ready
// closes when the disk read (done outside the pool lock) finishes, so
// concurrent Gets of one page coalesce into a single read.
//
// buf is valid only while the frame is pinned: an evicted frame's buffer
// is handed to the page that displaced it, so nothing may alias a frame
// after unpin — readers copy what they keep.
type frame struct {
	no         uint32
	buf        []byte
	pin        int
	prev, next *frame // eviction-ring neighbours while unpinned, else nil
	ready      chan struct{}
	err        error
}

// pool is the fixed-capacity buffer pool over the heap file. All pages
// are read-only after build, so there is no dirty tracking or write-back
// — eviction is a plain drop, and the dropped frame's buffer is reused
// for the incoming page, so a pool allocates at most cap page buffers.
type pool struct {
	src    io.ReaderAt
	npages uint32
	cap    int
	ctr    Counters

	mu     sync.Mutex
	frames map[uint32]*frame
	lru    frame // sentinel of the unpinned ring: lru.next oldest, lru.prev newest
}

func newPool(src io.ReaderAt, npages uint32, capPages int, ctr Counters) *pool {
	if capPages <= 0 {
		capPages = DefaultPoolPages
	}
	if capPages < 4 {
		capPages = 4
	}
	p := &pool{
		src: src, npages: npages, cap: capPages, ctr: ctr.norm(),
		frames: make(map[uint32]*frame),
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p
}

// unlist takes an unpinned frame off the eviction ring.
func (p *pool) unlist(fr *frame) {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = nil, nil
}

// get returns page no pinned; the caller must unpin it. A pinned frame
// is never evicted, so its buffer stays valid until unpin.
func (p *pool) get(no uint32) (*frame, error) {
	if no >= p.npages {
		return nil, fmt.Errorf("%w: page %d of %d-page heap", ErrTruncated, no, p.npages)
	}
	p.mu.Lock()
	if fr := p.frames[no]; fr != nil {
		if fr.next != nil {
			p.unlist(fr)
		}
		fr.pin++
		p.mu.Unlock()
		<-fr.ready
		if fr.err != nil {
			err := fr.err
			p.unpin(fr)
			return nil, err
		}
		return fr, nil
	}
	// Miss: make room, insert a loading frame, read outside the lock.
	var buf []byte
	for len(p.frames) >= p.cap {
		vic := p.lru.next
		if vic == &p.lru {
			n := len(p.frames)
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: all %d frames pinned", ErrPoolExhausted, n)
		}
		p.unlist(vic)
		delete(p.frames, vic.no)
		buf, vic.buf = vic.buf, nil
		p.ctr.PagesEvicted.Add(1)
	}
	if buf == nil {
		buf = make([]byte, PageSize)
	}
	fr := &frame{no: no, pin: 1, buf: buf, ready: make(chan struct{})}
	p.frames[no] = fr
	p.mu.Unlock()

	_, err := p.src.ReadAt(fr.buf, int64(no)*PageSize)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = fmt.Errorf("%w: page %d past end of heap file", ErrTruncated, no)
	}
	if err == nil {
		err = verifyPage(fr.buf)
	}
	p.ctr.PagesRead.Add(1)
	fr.err = err
	close(fr.ready)
	if err != nil {
		p.unpin(fr)
		return nil, err
	}
	return fr, nil
}

// unpin releases one pin; at zero the frame becomes evictable (or is
// discarded outright if its read failed).
func (p *pool) unpin(fr *frame) {
	p.mu.Lock()
	fr.pin--
	if fr.pin == 0 && p.frames[fr.no] == fr {
		if fr.err != nil {
			delete(p.frames, fr.no)
		} else {
			newest := p.lru.prev
			fr.prev, fr.next = newest, &p.lru
			newest.next, p.lru.prev = fr, fr
		}
	}
	p.mu.Unlock()
}

// resident reports the frames currently held — tests reconcile this with
// reads minus evictions and against the capacity bound.
func (p *pool) resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}
