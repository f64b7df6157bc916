package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"testing"
)

// benchMessages returns the per-kind workloads the codec benchmarks
// sweep: the traversal-edge clone, a one-node result, a wide result (one
// clone message that named 32 destinations at the site), and the tiny
// stop control frame.
func benchMessages() map[string]any {
	wide := &ResultMsg{
		ID:   QueryID{User: "maya", Site: "user/results", Num: 8},
		Site: "a.example/query", Hop: 2,
		From: "a.example/query@0",
	}
	for i := 0; i < 32; i++ {
		wide.Updates = append(wide.Updates, CHTUpdate{
			Processed: CHTEntry{Node: fmt.Sprintf("http://a/p%d.html", i), State: State{NumQ: 1, Rem: "G"}, Origin: "a/q", Seq: int64(i)},
		})
		wide.Tables = append(wide.Tables, NodeTable{
			Node: fmt.Sprintf("http://a/p%d.html", i),
			Cols: []string{"d0.url"},
			Rows: [][]string{{fmt.Sprintf("http://a/p%d.html", i)}},
		})
	}
	return map[string]any{
		"Clone": sampleClone(),
		"Result": &ResultMsg{
			ID:   QueryID{User: "maya", Site: "user/results", Num: 7},
			Site: "a.example/query",
			Updates: []CHTUpdate{{
				Processed: CHTEntry{Node: "http://a/x.html", State: State{NumQ: 2, Rem: "L*1"}, Origin: "a/q", Seq: 4},
			}},
			Tables: []NodeTable{{
				Node: "http://a/x.html",
				Cols: []string{"d0.url", "d0.title"},
				Rows: [][]string{{"http://a/x.html", "Home"}},
			}},
			From: "a.example/query@0",
		},
		"ResultWide": wide,
		"Stop":       &StopMsg{ID: QueryID{User: "maya", Site: "user/results", Num: 7}, Reason: "first-n satisfied"},
	}
}

// BenchmarkEncodeV2 measures steady-state v2 encoding per message type
// (persistent session: reused buffers, warm intern table).
func BenchmarkEncodeV2(b *testing.B) {
	for name, msg := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			f := &Framed{Conn: nullConn{}, ver: MaxWireVersion}
			if err := Send(f, msg); err != nil { // warm buffers + tables
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Send(f, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeGob is the gob baseline: a persistent gob stream over
// the same envelopes, type descriptors already sent.
func BenchmarkEncodeGob(b *testing.B) {
	for name, msg := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			env, err := wrap(msg)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			ge := gob.NewEncoder(&buf)
			if err := ge.Encode(&env); err != nil { // descriptors
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := ge.Encode(&env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeV2 measures steady-state v2 decoding: the frame
// payload is pre-encoded with a warm intern table, exactly what the
// second and later frames of a session look like.
func BenchmarkDecodeV2(b *testing.B) {
	for name, msg := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			env, err := wrap(msg)
			if err != nil {
				b.Fatal(err)
			}
			enc := newEncoder()
			code, _ := kindCode(env.Kind)
			if err := encodeEnvelope(enc, &env); err != nil { // frame 1: interns
				b.Fatal(err)
			}
			enc.buf = enc.buf[:0]
			if err := encodeEnvelope(enc, &env); err != nil { // frame 2: refs only
				b.Fatal(err)
			}
			payload := enc.buf
			dec := newDecoder()
			// Mirror the sending table: decode an interning frame once.
			first := newEncoder()
			if err := encodeEnvelope(first, &env); err != nil {
				b.Fatal(err)
			}
			dec.reset(first.buf)
			if _, err := decodeEnvelope(dec, code); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec.reset(payload)
				if _, err := decodeEnvelope(dec, code); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// repeatReader replays a gob stream's steady state: the descriptor
// prefix once, then the data segment forever — what a persistent gob
// stream's decoder sees from its second message on.
type repeatReader struct {
	head, body []byte
	off        int
	inHead     bool
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.inHead {
		n := copy(p, r.head[r.off:])
		r.off += n
		if r.off == len(r.head) {
			r.inHead, r.off = false, 0
		}
		return n, nil
	}
	n := copy(p, r.body[r.off:])
	r.off += n
	if r.off == len(r.body) {
		r.off = 0
	}
	return n, nil
}

// BenchmarkDecodeGob is the gob decode baseline: a persistent gob
// stream decoding the same messages (descriptors amortized away, as in a
// pooled connection).
func BenchmarkDecodeGob(b *testing.B) {
	for name, msg := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			env, err := wrap(msg)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			ge := gob.NewEncoder(&buf)
			if err := ge.Encode(&env); err != nil {
				b.Fatal(err)
			}
			head := append([]byte(nil), buf.Bytes()...)
			buf.Reset()
			if err := ge.Encode(&env); err != nil {
				b.Fatal(err)
			}
			body := append([]byte(nil), buf.Bytes()...)
			dec := gob.NewDecoder(&repeatReader{head: head, body: body, inHead: true})
			var sink envelope
			if err := dec.Decode(&sink); err != nil { // consume the head
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var out envelope
				if err := dec.Decode(&out); err != nil && err != io.EOF {
					b.Fatal(err)
				}
			}
		})
	}
}
