package server

import (
	"math/rand"
	"testing"

	"webdis/internal/wire"
)

// TestSerialTableNeverRepeats drives a two-slot table with a random
// interleaving of 24 live queries from three clients — every query is
// displaced and comes back many times — and checks the one thing the CHT
// needs: no query is ever given the same serial twice.
func TestSerialTableNeverRepeats(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tbl := newSerialTable(2)
	var ids []wire.QueryID
	for _, user := range []string{"ann", "bob", "cy"} {
		for num := 1; num <= 8; num++ {
			ids = append(ids, wire.QueryID{User: user, Site: user + "/c", Num: num})
		}
	}
	last := map[wire.QueryID]int64{}
	for i := 0; i < 20000; i++ {
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
// queries each count from 1, far past the point where the table has
// wrapped, and a query that is still live when its slot is taken picks
// up above its own earlier serials.
func TestSerialTableStartsOverForNewQueries(t *testing.T) {
	tbl := newSerialTable(4)
	id := func(num int) wire.QueryID { return wire.QueryID{User: "u", Site: "u/c", Num: num} }
	for num := 1; num <= 1000; num++ {
		for want := int64(1); want <= 40; want++ {
			if got := tbl.next(id(num)); got != want {
				t.Fatalf("query %d: serial %d, want %d", num, got, want)
			}
		}
	}
	// Query 1001 takes query 997's slot; 997, still live, comes back.
	if got := tbl.next(id(1001)); got != 1 {
		t.Fatalf("query 1001: serial %d, want 1", got)
	}
	if got := tbl.next(id(997)); got <= 40 {
		t.Fatalf("query 997 came back to serial %d, at or below the 40 it already has", got)
	}
}
