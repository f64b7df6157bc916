package server

import (
	"math/rand"
	"testing"

	"webdis/internal/netsim"
	"webdis/internal/wire"
)

// serials is a server, never started, whose record store a test drives
// by hand: next numbers a CHT entry of a query, and free sweeps away
// every record but those of the live queries.
type serials struct{ s *Server }

func newSerials() serials {
	return serials{New("site.example", nil, netsim.New(netsim.Options{}), &Metrics{}, Options{})}
}

func (t serials) next(id wire.QueryID) int64 {
	t.s.qmu.Lock()
	q := t.s.record(id)
	t.s.qmu.Unlock()
	return q.serial.Add(1)
}

func (t serials) free(live ...wire.QueryID) {
	t.s.qmu.Lock()
	for _, id := range live {
		t.s.record(id).active++
	}
	t.s.qmu.Unlock()
	t.s.sweep(0)
	t.s.qmu.Lock()
	for _, id := range live {
		t.s.queries[id].active--
	}
	t.s.qmu.Unlock()
}

// TestSerialTableNeverRepeats drives the record store with a random
// interleaving of 24 queries from three clients, and a sweep at random
// that frees the records of all but a random few of them — so every
// query's record is freed and the query comes back many times — and
// checks the one thing the CHT needs: no query is ever given the same
// serial twice.
func TestSerialTableNeverRepeats(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tbl := newSerials()
	var ids []wire.QueryID
	for _, user := range []string{"ann", "bob", "cy"} {
		for num := 1; num <= 8; num++ {
			ids = append(ids, wire.QueryID{User: user, Site: user + "/c", Num: num})
		}
	}
	last := map[wire.QueryID]int64{}
	for i := 0; i < 20000; i++ {
		if r.Intn(50) == 0 {
			tbl.free(ids[r.Intn(len(ids))], ids[r.Intn(len(ids))])
		}
		id := ids[r.Intn(len(ids))]
		got := tbl.next(id)
		if got <= last[id] {
			t.Fatalf("step %d: %v was given %d after %d", i, id, got, last[id])
		}
		last[id] = got
	}
}

// TestSerialTableStartsOverForNewQueries: what keeps a query's bytes
// from depending on the deployment's age — a client's consecutive
// queries each count from 1, however many records were freed before
// them, and a query whose record was freed picks up above its own
// earlier serials when it comes back.
func TestSerialTableStartsOverForNewQueries(t *testing.T) {
	tbl := newSerials()
	id := func(num int) wire.QueryID { return wire.QueryID{User: "u", Site: "u/c", Num: num} }
	for num := 1; num <= 1000; num++ {
		for want := int64(1); want <= 40; want++ {
			if got := tbl.next(id(num)); got != want {
				t.Fatalf("query %d: serial %d, want %d", num, got, want)
			}
		}
		if num%7 == 0 {
			tbl.free(id(num))
		}
	}
	tbl.free()
	if n := len(tbl.s.queries); n != 0 {
		t.Fatalf("%d records survive a sweep with no live query", n)
	}
	if got := tbl.next(id(1001)); got != 1 {
		t.Fatalf("query 1001: serial %d, want 1", got)
	}
	// Query 997, freed, comes back.
	if got := tbl.next(id(997)); got <= 40 {
		t.Fatalf("query 997 came back to serial %d, at or below the 40 it already has", got)
	}
}

// TestSweepKeepsBusyRecords: the sweep never frees the record of a query
// with a clone queued or being handled, or with a standing watch — its
// clones still count on the record's serials and log entries — and frees
// it once the clone is released.
func TestSweepKeepsBusyRecords(t *testing.T) {
	s := newSerials().s
	id := func(num int) wire.QueryID { return wire.QueryID{User: "u", Site: "u/c", Num: num} }
	s.qmu.Lock()
	busy := s.record(id(1))
	busy.active++
	s.record(id(2)).watching = true
	s.record(id(3))
	s.qmu.Unlock()
	s.sweep(0)
	if s.queries[id(1)] != busy || s.queries[id(2)] == nil || s.queries[id(3)] != nil {
		t.Fatalf("after a sweep: %v, want the busy and the watched record only", s.queries)
	}
	s.release(busy, 0)
	s.sweep(0)
	if len(s.queries) != 1 || s.queries[id(2)] == nil {
		t.Fatalf("after release and a sweep: %v, want the watched record only", s.queries)
	}
}
