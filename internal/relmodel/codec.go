package relmodel

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Tuple codec: the byte encoding the persistent site store (package
// store) writes into its slotted heap pages. One record is one tuple of
// one virtual relation,
//
//	kind byte | ncols uvarint | (len uvarint, bytes)*ncols
//
// where kind names the relation (KindDocument/KindAnchor/KindRelInfon).
// The encoding is self-delimiting, so DecodeTuple reports how many bytes
// it consumed and a page slot can hold the record without a separate
// length field.

// Relation kind bytes of the tuple codec.
const (
	KindDocument byte = 1
	KindAnchor   byte = 2
	KindRelInfon byte = 3
)

// ErrBadTuple reports a malformed tuple encoding (unknown kind byte,
// truncated varint or field, or an absurd column count).
var ErrBadTuple = errors.New("relmodel: malformed tuple encoding")

// maxCodecCols bounds the decoded column count; the widest virtual
// relation has 4 columns, so anything large is corruption, not data.
const maxCodecCols = 64

// RelOfKind returns the relation name of a codec kind byte ("" if
// unknown).
func RelOfKind(k byte) string {
	if k < 1 || int(k) > len(kinds) {
		return ""
	}
	return kinds[k-1]
}

// AppendTuple appends the encoding of one tuple to dst and returns the
// extended slice.
func AppendTuple(dst []byte, kind byte, t Tuple) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// DecodeTuple decodes one tuple from the front of rec, returning the
// relation kind, the tuple and the number of bytes consumed. The fields
// are substrings of rec — decoding allocates the tuple and nothing else
// — so the caller hands in a string it owns (the store makes one copy of
// a record's bytes out of the pinned buffer-pool page; nothing may alias
// a frame after unpin).
func DecodeTuple(rec string) (kind byte, t Tuple, n int, err error) {
	if len(rec) == 0 {
		return 0, nil, 0, fmt.Errorf("%w: empty record", ErrBadTuple)
	}
	kind = rec[0]
	if RelOfKind(kind) == "" {
		return 0, nil, 0, fmt.Errorf("%w: unknown relation kind %d", ErrBadTuple, kind)
	}
	pos := 1
	ncols, w := uvarint(rec[pos:])
	if w <= 0 || ncols > maxCodecCols {
		return 0, nil, 0, fmt.Errorf("%w: bad column count", ErrBadTuple)
	}
	pos += w
	t = make(Tuple, 0, ncols)
	for i := uint64(0); i < ncols; i++ {
		flen, w := uvarint(rec[pos:])
		if w <= 0 {
			return 0, nil, 0, fmt.Errorf("%w: bad field length", ErrBadTuple)
		}
		pos += w
		if uint64(len(rec)-pos) < flen {
			return 0, nil, 0, fmt.Errorf("%w: field overruns record", ErrBadTuple)
		}
		t = append(t, rec[pos:pos+int(flen)])
		pos += int(flen)
	}
	return kind, t, pos, nil
}

// uvarint is binary.Uvarint over a string: the value and the bytes
// read, or n <= 0 for a truncated, overlong or non-minimal encoding
// (AppendTuple never pads a varint, so a padded one is damage).
func uvarint(s string) (v uint64, n int) {
	var shift uint
	for i := 0; i < len(s) && i < binary.MaxVarintLen64; i++ {
		b := s[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 || i > 0 && b == 0 {
				return 0, -(i + 1)
			}
			return v | uint64(b)<<shift, i + 1
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0
}
