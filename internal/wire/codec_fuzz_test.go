package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"webdis/internal/nodequery"
)

// fuzzSource deals bounded values out of the fuzz input — a tiny
// deterministic generator, so every corpus entry maps to one message.
type fuzzSource struct {
	data []byte
	off  int
}

func (s *fuzzSource) byte() byte {
	if s.off >= len(s.data) {
		return 0
	}
	b := s.data[s.off]
	s.off++
	return b
}

func (s *fuzzSource) n(bound int) int { return int(s.byte()) % bound }

func (s *fuzzSource) i64() int64 {
	v := int64(s.byte())<<8 | int64(s.byte())
	if s.byte()&1 == 1 {
		v = -v
	}
	return v
}

func (s *fuzzSource) str() string {
	n := s.n(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = ' ' + s.byte()%95 // printable ASCII
	}
	return string(b)
}

func (s *fuzzSource) pred(depth int) *nodequery.Pred {
	if depth > 3 {
		return nil
	}
	switch s.n(5) {
	case 0:
		return nil
	case 1:
		return &nodequery.Pred{Kind: nodequery.True}
	case 2:
		return nodequery.Compare(
			nodequery.ColOperand(s.str(), s.str()),
			nodequery.CmpOp(s.n(int(nodequery.NotContains)+1)),
			nodequery.LitOperand(s.str()))
	default:
		p := &nodequery.Pred{Kind: nodequery.PredKind(s.n(3) + 1)} // And/Or/Not
		for i, k := 0, s.n(3); i < k; i++ {
			p.Kids = append(p.Kids, s.pred(depth+1))
		}
		return p
	}
}

func (s *fuzzSource) clone() *CloneMsg {
	m := &CloneMsg{
		ID:   QueryID{User: s.str(), Site: s.str(), Num: int(s.byte())},
		Rem:  s.str(),
		Base: s.n(4),
		Hops: s.n(16),
		Span: SpanID{Origin: s.str(), Seq: s.i64()},
	}
	for i, k := 0, s.n(4); i < k; i++ {
		m.Dest = append(m.Dest, DestNode{URL: s.str(), Origin: s.str(), Seq: s.i64()})
	}
	for i, k := 0, s.n(3); i < k; i++ {
		st := StageMsg{PRE: s.str()}
		if s.byte()&1 == 1 {
			st.Query = &nodequery.Query{Where: s.pred(0)}
			for j, v := 0, s.n(3); j < v; j++ {
				st.Query.Vars = append(st.Query.Vars, nodequery.VarDecl{Name: s.str(), Rel: s.str(), Cond: s.pred(0)})
			}
			for j, v := 0, s.n(3); j < v; j++ {
				st.Query.Select = append(st.Query.Select, nodequery.ColRef{Var: s.str(), Col: s.str()})
			}
		}
		for j, v := 0, s.n(3); j < v; j++ {
			st.Export = append(st.Export, s.str())
		}
		m.Stages = append(m.Stages, st)
	}
	if k := s.n(3); k > 0 {
		m.Env = make(map[string]string, k)
		for i := 0; i < k; i++ {
			m.Env[s.str()] = s.str()
		}
	}
	m.Budget = Budget{Deadline: s.i64(), Hops: s.n(8), Rows: s.n(1000), FirstN: s.n(50)}
	if s.byte()&1 == 1 {
		m.Frag = &PlanFrag{Version: 1, Stage: s.n(3), Spec: nodequery.OutputSpec{
			Cols:  []nodequery.OutputCol{{Agg: nodequery.AggKind(s.n(int(nodequery.AggMax) + 1)), Star: s.byte()&1 == 1, Ref: nodequery.ColRef{Var: s.str(), Col: s.str()}}},
			Limit: s.n(100),
		}}
	}
	for i, k := 0, s.n(3); i < k; i++ {
		m.Hints = append(m.Hints, SiteStat{Site: s.str(), Docs: s.i64(), DocBytes: s.i64(), Fanout: s.i64()})
	}
	return m
}

func (s *fuzzSource) result() *ResultMsg {
	m := &ResultMsg{
		ID:   QueryID{User: s.str(), Site: s.str(), Num: int(s.byte())},
		Site: s.str(),
		Hop:  s.n(16),
		From: s.str(),
		Inc:  s.i64(),
	}
	// Up to 8 updates and 8 tables: one wide frame, as a clone message
	// naming several destinations at the site produces.
	for i, k := 0, s.n(9); i < k; i++ {
		u := CHTUpdate{Processed: CHTEntry{Node: s.str(), State: State{NumQ: s.n(4), Rem: s.str()}, Origin: s.str(), Seq: s.i64()}}
		for j, c := 0, s.n(3); j < c; j++ {
			u.Children = append(u.Children, CHTEntry{Node: s.str(), Origin: s.str(), Seq: s.i64()})
		}
		m.Updates = append(m.Updates, u)
	}
	for i, k := 0, s.n(9); i < k; i++ {
		t := NodeTable{Node: s.str(), Stage: s.n(3), Env: s.str(), Partial: s.byte()&1 == 1}
		for j, c := 0, s.n(3); j < c; j++ {
			t.Cols = append(t.Cols, s.str())
		}
		for j, c := 0, s.n(4); j < c; j++ {
			var row []string
			for x := 0; x < len(t.Cols); x++ {
				row = append(row, s.str())
			}
			t.Rows = append(t.Rows, row)
		}
		m.Tables = append(m.Tables, t)
	}
	m.Fate = Fate(s.n(int(FateShed) + 1))
	m.Span = SpanID{Origin: s.str(), Seq: s.i64()}
	for i, k := 0, s.n(3); i < k; i++ {
		m.Spawned = append(m.Spawned, SpanLink{Span: SpanID{Origin: s.str(), Seq: s.i64()}, Site: s.str()})
	}
	for i, k := 0, s.n(3); i < k; i++ {
		m.Stats = append(m.Stats, SiteStat{Site: s.str(), Docs: s.i64(), Evals: s.i64(), RowsEmitted: s.i64()})
	}
	return m
}

// message builds one wire message of a fuzz-chosen kind.
func (s *fuzzSource) message() any {
	switch s.n(8) {
	case 0:
		return s.clone()
	case 1:
		return s.result()
	case 2:
		return &BounceMsg{Clone: s.clone(), Reason: s.str()}
	case 3:
		return &StopMsg{ID: QueryID{User: s.str(), Site: s.str(), Num: s.n(100)}, Reason: s.str()}
	case 4:
		return &FetchReq{URL: s.str()}
	case 5:
		return &FetchResp{URL: s.str(), Content: []byte(s.str()), Err: s.str()}
	case 6:
		return &WatchMsg{Version: s.n(3), ID: QueryID{User: s.str(), Site: s.str(), Num: s.n(100)}, Cancel: s.n(2) == 1}
	default:
		m := &DeltaMsg{Version: s.n(3), ID: QueryID{User: s.str(), Site: s.str(), Num: s.n(100)}, Site: s.str(), Seq: s.i64()}
		for i, k := 0, s.n(3); i < k; i++ {
			m.Edited = append(m.Edited, s.str())
		}
		for i, k := 0, s.n(3); i < k; i++ {
			m.Rewired = append(m.Rewired, s.str())
		}
		return m
	}
}

// gobCanonical round-trips msg through the gob envelope — the oracle.
// Gob normalizes in ways the fuzzer must mirror (empty slices/maps to
// nil, pointer-to-zero-struct dropped), so the comparison target is
// gob's reconstruction, not the raw input.
func gobCanonical(t *testing.T, msg any) any {
	t.Helper()
	env, err := wrap(msg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		t.Skip("gob cannot encode this message; nothing to compare")
	}
	var out envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob oracle decode: %v", err)
	}
	m, err := unwrap(&out)
	if err != nil {
		t.Skipf("oracle rejects message: %v", err)
	}
	return m
}

// unwrap validates a gob-decoded envelope and returns its payload
// message. Gob drops a pointer to a zero struct, so the oracle can empty
// an envelope the binary codec would carry whole.
func unwrap(env *envelope) (any, error) {
	switch env.Kind {
	case KindClone:
		if env.Clone == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Clone, nil
	case KindResult:
		if env.Result == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Result, nil
	case KindBounce:
		if env.Bounce == nil || env.Bounce.Clone == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Bounce, nil
	case KindStop:
		if env.Stop == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Stop, nil
	case KindFetchReq:
		if env.FetchReq == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.FetchReq, nil
	case KindFetchResp:
		if env.FetchResp == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.FetchResp, nil
	case KindWatch:
		if env.Watch == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Watch, nil
	case KindDelta:
		if env.Delta == nil {
			return nil, fmt.Errorf("wire: empty %s envelope", env.Kind)
		}
		return env.Delta, nil
	}
	return nil, fmt.Errorf("wire: unknown message kind %q", env.Kind)
}

// v2RoundTrip encodes msg as one v2 payload and decodes it back on
// fresh codecs, returning the payload too for mutation checks.
func v2RoundTrip(t *testing.T, msg any) (any, []byte, byte) {
	t.Helper()
	env, err := wrap(msg)
	if err != nil {
		t.Fatal(err)
	}
	code, ok := kindCode(env.Kind)
	if !ok {
		t.Fatalf("no kind code for %q", env.Kind)
	}
	enc := newEncoder()
	if err := encodeEnvelope(enc, &env); err != nil {
		t.Skipf("v2 refuses to encode: %v", err)
	}
	dec := newDecoder()
	dec.reset(enc.buf)
	out, err := decodeEnvelope(dec, code)
	if err != nil {
		t.Fatalf("v2 decode of freshly encoded %q: %v", env.Kind, err)
	}
	return out, enc.buf, code
}

// v2DecodeErr encodes msg and decodes it back, returning the decode error.
func v2DecodeErr(msg any) (any, error) {
	env, err := wrap(msg)
	if err != nil {
		return nil, err
	}
	code, _ := kindCode(env.Kind)
	enc := newEncoder()
	if err := encodeEnvelope(enc, &env); err != nil {
		return nil, err
	}
	dec := newDecoder()
	dec.reset(enc.buf)
	return decodeEnvelope(dec, code)
}

// FuzzCodecRoundTrip is the differential fuzzer the CI smoke job runs:
// every generated message must decode from v2 to exactly what the gob
// oracle reconstructs; every truncation of a valid payload must fail
// with a typed error; byte flips must never panic or hang.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte("select d.url from document d such that start N|(G*3) d"))
	f.Add(bytes.Repeat([]byte{0xFF, 0x00, 0x7F}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSource{data: data}
		msg := src.message()

		want := gobCanonical(t, msg)
		got, payload, code := v2RoundTrip(t, want)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("v2 disagrees with gob oracle:\ngob = %#v\nv2  = %#v", want, got)
		}

		// Every truncation must be rejected with a typed error — never a
		// silent partial message.
		for _, cut := range []int{0, len(payload) / 2, len(payload) - 1} {
			if cut < 0 || cut >= len(payload) {
				continue
			}
			dec := newDecoder()
			dec.reset(payload[:cut])
			if m, err := decodeEnvelope(dec, code); err == nil {
				t.Fatalf("truncation at %d/%d decoded to %#v", cut, len(payload), m)
			} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation error not typed: %v", err)
			}
		}

		// A report whose fate lies past the last one is refused with a
		// typed error, never decoded as some other fate.
		if rm, ok := want.(*ResultMsg); ok {
			bad := *rm
			bad.Fate = FateShed + 1 + Fate(src.byte()%uint8(255-FateShed))
			_, err := v2DecodeErr(&bad)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("fate %d decoded with err = %v, want ErrCorrupt", bad.Fate, err)
			}
		}

		// Byte flips must never panic; errors (or reinterpreted messages)
		// are both acceptable.
		if len(payload) > 0 && len(data) > 0 {
			flipped := append([]byte(nil), payload...)
			flipped[int(data[0])%len(flipped)] ^= 0xA5
			dec := newDecoder()
			dec.reset(flipped)
			decodeEnvelope(dec, code)
		}

		// Arbitrary bytes as a payload must never panic either.
		dec := newDecoder()
		dec.reset(data)
		decodeEnvelope(dec, byte(len(data))%9)
	})
}
