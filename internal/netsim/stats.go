// Package netsim provides the transport substrate of the WEBDIS
// reproduction: named endpoints connected either by an instrumented
// in-process fabric (Network) or by real TCP sockets (TCPTransport). All
// engine components speak to the Transport interface, so the same client
// and server code runs single-process for deterministic experiments and
// multi-process over sockets, as the original Java system did.
//
// The in-process fabric counts every byte and message per directed edge
// and can inject per-message latency, finite bandwidth and endpoint
// failures. The paper's evaluation claims are about network traffic and
// response time; this instrumentation is what regenerates them.
package netsim

import (
	"sort"
	"sync"
)

// Edge is a directed (from, to) endpoint pair.
type Edge struct {
	From, To string
}

// Counters accumulate traffic along one edge.
type Counters struct {
	Bytes    int64
	Messages int64            // frames marked by the wire layer
	Dials    int64            // connections opened
	Dropped  int64            // frames discarded by fault injection
	Severed  int64            // connections cut mid-frame by fault injection
	Refused  int64            // dials refused (down, blocked, or no listener)
	Crashed  int64            // connections cut by an endpoint crash
	ByKind   map[string]int64 // message count per wire kind
}

func (c *Counters) clone() *Counters {
	out := &Counters{Bytes: c.Bytes, Messages: c.Messages, Dials: c.Dials,
		Dropped: c.Dropped, Severed: c.Severed, Refused: c.Refused,
		Crashed: c.Crashed,
		ByKind:  make(map[string]int64, len(c.ByKind))}
	for k, v := range c.ByKind {
		out.ByKind[k] = v
	}
	return out
}

// Stats collects per-edge traffic counters. It is safe for concurrent use.
type Stats struct {
	mu    sync.Mutex
	edges map[Edge]*Counters
}

// NewStats returns an empty collector.
func NewStats() *Stats {
	return &Stats{edges: make(map[Edge]*Counters)}
}

func (s *Stats) counters(e Edge) *Counters {
	c, ok := s.edges[e]
	if !ok {
		c = &Counters{ByKind: make(map[string]int64)}
		s.edges[e] = c
	}
	return c
}

// AddBytes records n payload bytes sent from from to to.
func (s *Stats) AddBytes(from, to string, n int) {
	s.mu.Lock()
	s.counters(Edge{from, to}).Bytes += int64(n)
	s.mu.Unlock()
}

// AddMessage records one wire message of the given kind on the edge.
func (s *Stats) AddMessage(from, to, kind string) {
	s.mu.Lock()
	c := s.counters(Edge{from, to})
	c.Messages++
	c.ByKind[kind]++
	s.mu.Unlock()
}

// DropMessage takes back one AddMessage: the sender books a frame before
// writing it (so no reader can see a frame that is not yet counted) and
// un-books it when the write fails.
func (s *Stats) DropMessage(from, to, kind string) {
	s.mu.Lock()
	if c := s.counters(Edge{from, to}); c.ByKind[kind] > 0 {
		c.Messages--
		if c.ByKind[kind]--; c.ByKind[kind] == 0 {
			delete(c.ByKind, kind)
		}
	}
	s.mu.Unlock()
}

// AddDial records one opened connection on the edge.
func (s *Stats) AddDial(from, to string) {
	s.mu.Lock()
	s.counters(Edge{from, to}).Dials++
	s.mu.Unlock()
}

// AddDropped records one frame discarded by fault injection on the edge.
func (s *Stats) AddDropped(from, to string) {
	s.mu.Lock()
	s.counters(Edge{from, to}).Dropped++
	s.mu.Unlock()
}

// AddSevered records one connection cut mid-frame on the edge.
func (s *Stats) AddSevered(from, to string) {
	s.mu.Lock()
	s.counters(Edge{from, to}).Severed++
	s.mu.Unlock()
}

// AddCrashed records one established connection cut by an endpoint
// crash (CrashWindow or Kill) on the edge.
func (s *Stats) AddCrashed(from, to string) {
	s.mu.Lock()
	s.counters(Edge{from, to}).Crashed++
	s.mu.Unlock()
}

// AddRefused records one refused dial on the edge.
func (s *Stats) AddRefused(from, to string) {
	s.mu.Lock()
	s.counters(Edge{from, to}).Refused++
	s.mu.Unlock()
}

// Reset clears all counters.
func (s *Stats) Reset() {
	s.mu.Lock()
	s.edges = make(map[Edge]*Counters)
	s.mu.Unlock()
}

// Snapshot is a consistent copy of the collected counters.
type Snapshot struct {
	Edges map[Edge]*Counters
}

// Snapshot returns a deep copy of the current counters.
func (s *Stats) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Snapshot{Edges: make(map[Edge]*Counters, len(s.edges))}
	for e, c := range s.edges {
		out.Edges[e] = c.clone()
	}
	return out
}

// add accumulates c into t.
func (t *Counters) add(c *Counters) {
	t.Bytes += c.Bytes
	t.Messages += c.Messages
	t.Dials += c.Dials
	t.Dropped += c.Dropped
	t.Severed += c.Severed
	t.Refused += c.Refused
	t.Crashed += c.Crashed
	for k, v := range c.ByKind {
		t.ByKind[k] += v
	}
}

// Total returns the aggregate counters across all edges.
func (sn Snapshot) Total() Counters {
	t := Counters{ByKind: make(map[string]int64)}
	for _, c := range sn.Edges {
		t.add(c)
	}
	return t
}

// To returns aggregate counters for traffic into the named endpoint.
func (sn Snapshot) To(name string) Counters {
	t := Counters{ByKind: make(map[string]int64)}
	for e, c := range sn.Edges {
		if e.To != name {
			continue
		}
		t.add(c)
	}
	return t
}

// From returns aggregate counters for traffic out of the named endpoint.
func (sn Snapshot) From(name string) Counters {
	t := Counters{ByKind: make(map[string]int64)}
	for e, c := range sn.Edges {
		if e.From != name {
			continue
		}
		t.add(c)
	}
	return t
}

// SortedEdges returns the edges in deterministic order for reporting.
func (sn Snapshot) SortedEdges() []Edge {
	edges := make([]Edge, 0, len(sn.Edges))
	for e := range sn.Edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return edges
}
