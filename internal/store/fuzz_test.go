package store

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"webdis/internal/relmodel"
)

// FuzzPageRoundTrip is the page/tuple codec oracle (the wire-codec fuzz
// pattern applied to storage): tuples derived from the inputs must
// round-trip byte-identically through the page writer and the record
// cursor (read once per relation kind: materialised when the kind
// matches, skipped otherwise),
// any single-byte flip must be rejected with a typed ErrCorrupt, and
// truncation with ErrTruncated. The raw input additionally drives the
// tuple decoder directly, which must never panic and must either error
// or report an exact consumed length.
func FuzzPageRoundTrip(f *testing.F) {
	f.Add("url", "title text", 1, 10, []byte{1, 2, 0})
	f.Add("", "", 0, 0, []byte(nil))
	f.Add("a", strings.Repeat("big", 3000), 3, 9000, []byte{0xff, 0x03})
	f.Add("x", "y", 200, 1, relmodel.AppendTuple(nil, relmodel.KindAnchor, relmodel.Tuple{"l", "b", "h", "t"}))
	f.Add("0", "0", 200, 1, []byte("\x02\x80\x00")) // a padded varint is damage, not a second spelling of 0
	f.Fuzz(func(t *testing.T, a, b string, ntup, pad int, raw []byte) {
		// 1. The tuple decoder is total on arbitrary bytes.
		if kind, tup, n, err := relmodel.DecodeTuple(string(raw)); err == nil {
			if n <= 0 || n > len(raw) {
				t.Fatalf("DecodeTuple consumed %d of %d", n, len(raw))
			}
			re := relmodel.AppendTuple(nil, kind, tup)
			if !bytes.Equal(re, raw[:n]) {
				t.Fatalf("decode/encode of valid prefix not stable")
			}
		}

		// 2. Writer/reader round trip, with sizes spanning pages.
		ntup = ntup%16 + 1
		pad = pad % 12000
		if pad < 0 {
			pad = -pad
		}
		var want []relmodel.Tuple
		kinds := []byte{relmodel.KindDocument, relmodel.KindAnchor, relmodel.KindRelInfon}
		var sink pageSink
		pw := newPageWriter(&sink)
		var firstPage uint32
		var firstSlot uint16
		for i := 0; i < ntup; i++ {
			tup := relmodel.Tuple{a, b, strings.Repeat("p", pad*i/ntup)}
			pg, sl, err := pw.append(relmodel.AppendTuple(nil, kinds[i%3], tup))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				firstPage, firstSlot = pg, sl
			}
			want = append(want, tup)
		}
		npages, err := pw.finish()
		if err != nil {
			t.Fatal(err)
		}
		p := newPool(sink.readerAt(), npages, 4, Counters{})
		// Each record comes back through the kind-filtered cursor when its
		// relation is the one read, and is stepped over otherwise.
		for _, read := range kinds {
			c := cursor{pool: p, page: firstPage, slot: int(firstSlot)}
			for i, w := range want {
				got, ok, err := c.next(read)
				if err != nil {
					t.Fatalf("record %d reading kind %d: %v", i, read, err)
				}
				if ok != (kinds[i%3] == read) || ok && !reflect.DeepEqual(got, w) {
					t.Fatalf("record %d reading kind %d: ok=%v, mismatch", i, read, ok)
				}
			}
			c.release()
		}

		// 3. A flipped byte is a typed corruption on that page.
		if len(sink.b) > 0 {
			off := pad % len(sink.b)
			dam := append([]byte(nil), sink.b...)
			dam[off] ^= 0x20
			page := dam[(off/PageSize)*PageSize : (off/PageSize+1)*PageSize]
			if err := verifyPage(page); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d: verifyPage = %v, want ErrCorrupt", off, err)
			}
		}

		// 4. Truncation is typed: a reader driven past a shortened heap
		// reports ErrTruncated.
		if npages > 0 {
			short := newPool(&memReaderAt{sink.b[:len(sink.b)-1]}, npages, 4, Counters{})
			last := npages - 1
			if _, err := short.get(last); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("short heap read: %v, want typed truncation/corruption", err)
			}
		}
	})
}
