package server

import (
	"sync/atomic"
	"time"

	"webdis/internal/wire"
)

// query is everything a site keeps of one query, from the first clone,
// StopMsg or WatchMsg of it to arrive until the sweep frees it. Fields
// other than the atomics are guarded by Server.qmu.
type query struct {
	log     uint64       // its number in the log table
	serial  atomic.Int64 // the last CHT serial the site gave it
	flow    string       // the scheduler's flow key, built once
	active  int          // clones queued or being handled
	last    int64        // when a clone of it was last handled, Unix ns
	stopped atomic.Bool  // the user-site broadcast an active stop
	// watching marks a registered standing watch; deltas is the Seq of
	// the last DeltaMsg the site sent it.
	watching bool
	deltas   int64
}

// client is the serial floor of one client (user, collector): the newest
// query number the site has numbered for, and a serial at least as high
// as every one the client's freed records gave out.
type client struct {
	newest int
	high   int64
}

// record returns the record of query id, creating it if there is none.
// Callers hold s.qmu. A query whose number is above every one its client
// has had here cannot have been here before, and its serials count from
// 1. Any other newcomer may be a query whose record was freed, and counts
// on above the client's floor, so no query is ever given a serial twice.
func (s *Server) record(id wire.QueryID) *query {
	if q := s.queries[id]; q != nil {
		return q
	}
	s.nums++
	q := &query{log: s.nums, flow: id.String()}
	k := [2]string{id.User, id.Site}
	if cl := s.clients[k]; id.Num > cl.newest {
		s.clients[k] = client{newest: id.Num, high: cl.high}
	} else {
		q.serial.Store(cl.high)
	}
	s.queries[id] = q
	return q
}

// release ends one clone's hold on its query's record; handled is when
// the clone was handled, 0 if it never was.
func (s *Server) release(q *query, handled int64) {
	s.qmu.Lock()
	q.active--
	q.last = max(q.last, handled)
	s.qmu.Unlock()
}

// sweep frees, with its log-table entries, the record of every query
// with no clone queued, being handled or handled within age, and no watch.
func (s *Server) sweep(age time.Duration) {
	cutoff := time.Now().Add(-age).UnixNano()
	gone := make(map[uint64]bool)
	s.qmu.Lock()
	for id, q := range s.queries {
		if q.active > 0 || q.watching || q.last > cutoff {
			continue
		}
		k := [2]string{id.User, id.Site}
		cl := s.clients[k]
		cl.high = max(cl.high, q.serial.Load())
		s.clients[k] = cl
		gone[q.log] = true
		delete(s.queries, id)
	}
	s.qmu.Unlock()
	if len(gone) > 0 {
		s.eval.Node.Log.Purge(gone)
	}
}

// stopQuery records an active-termination broadcast for one query.
func (s *Server) stopQuery(id wire.QueryID) {
	s.qmu.Lock()
	q := s.record(id)
	q.stopped.Store(true)
	q.last = time.Now().UnixNano()
	s.qmu.Unlock()
}

// Stopped reports whether the user-site's active stop for query id has
// reached this site.
func (s *Server) Stopped(id wire.QueryID) bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	q := s.queries[id]
	return q != nil && q.stopped.Load()
}

// handleWatch registers or cancels a standing watch. Registration is
// idempotent (a re-register keeps the existing sequence, so a collector
// that retries never sees Seq restart).
func (s *Server) handleWatch(m *wire.WatchMsg) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if m.Cancel {
		if q := s.queries[m.ID]; q != nil {
			q.watching, q.deltas = false, 0
		}
		return
	}
	if q := s.record(m.ID); !q.watching {
		q.watching = true
		s.met.WatchesRegistered.Add(1)
	}
}

// Watching reports whether the standing watch id is registered at this
// site. Registrations arrive unacknowledged; an in-process deployment
// asks before it lets a mutation loose on a new watch.
func (s *Server) Watching(id wire.QueryID) bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	q := s.queries[id]
	return q != nil && q.watching
}

// Queued returns how many clones of query id wait in the scheduler queue
// or are being handled.
func (s *Server) Queued(id wire.QueryID) int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if q := s.queries[id]; q != nil {
		return q.active
	}
	return 0
}
