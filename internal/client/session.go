package client

import (
	"context"
	"errors"
	"slices"
	"sync"

	"webdis/internal/disql"
	"webdis/internal/wire"
)

// ErrSessionClosed is returned by Session.Submit after Close.
var ErrSessionClosed = errors.New("client: session closed")

// Session groups the concurrent queries of one piece of work — a user's
// tab, a load generator's flow — so they can be counted and cancelled
// together. Every query of a client already shares the client's Result
// Collector endpoint and is routed by query id, so a session owns no
// socket: it is a handle over the queries submitted through it, each with
// its own CHT, reaper and result tables.
type Session struct {
	c *Client

	mu      sync.Mutex
	queries []*Query // submitted and not yet seen finished
	closed  bool
}

// NewSession opens a multi-query session on the client's collector.
func (c *Client) NewSession() (*Session, error) {
	c.mu.Lock()
	err := c.open()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &Session{c: c}, nil
}

// Endpoint returns the collector endpoint the session's queries report to.
func (s *Session) Endpoint() string { return s.c.endpoint }

// Submit dispatches a web-query as part of the session. Queries from one
// session run concurrently; Wait on each Query as usual.
func (s *Session) Submit(w *disql.WebQuery) (*Query, error) {
	return s.SubmitBudget(w, wire.Budget{})
}

// SubmitBudget is Submit with a wire-carried resource budget (see
// Client.SubmitBudget).
func (s *Session) SubmitBudget(w *disql.WebQuery, b wire.Budget) (*Query, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	q, err := s.c.submit(w, b, nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		q.Cancel()
		return nil, ErrSessionClosed
	}
	s.queries = append(s.live(), q)
	s.mu.Unlock()
	return q, nil
}

// SubmitContext is Submit bound to ctx: when ctx ends before the query
// completes, the query is cancelled (see Client.SubmitContext). The
// session itself stays open.
func (s *Session) SubmitContext(ctx context.Context, w *disql.WebQuery) (*Query, error) {
	return s.SubmitBudgetContext(ctx, w, wire.Budget{})
}

// SubmitBudgetContext is SubmitContext with a resource budget.
func (s *Session) SubmitBudgetContext(ctx context.Context, w *disql.WebQuery, b wire.Budget) (*Query, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := s.SubmitBudget(w, b)
	if err != nil {
		return nil, err
	}
	q.watch(ctx)
	return q, nil
}

// live drops the finished queries from the session's list and returns
// it. Callers hold s.mu.
func (s *Session) live() []*Query {
	s.queries = slices.DeleteFunc(s.queries, (*Query).Done)
	return s.queries
}

// Live returns the number of the session's queries still running.
func (s *Session) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live())
}

// Close cancels every still-running query of the session and rejects
// further submissions. The collector endpoint belongs to the client and
// stays open.
func (s *Session) Close() {
	s.mu.Lock()
	s.closed = true
	queries := s.live()
	s.queries = nil
	s.mu.Unlock()
	// Cancel outside s.mu: each cancel talks to the network.
	for _, q := range queries {
		q.Cancel()
	}
}
