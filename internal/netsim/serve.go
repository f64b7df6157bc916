package netsim

import (
	"net"
	"sync"
)

// Serving is one endpoint's receive side: an accept loop that hands every
// connection to a handler goroutine of its own, and the set of accepted
// connections still open. Senders pool their connections between
// messages, so a handler's receive loop does not end by itself; closing
// the connection is what ends it, and Close closes them all.
type Serving struct {
	ln     net.Listener
	handle func(net.Conn)
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts accepting on ln. Each accepted connection runs handle on
// its own goroutine and is closed when handle returns.
func Serve(ln net.Listener, handle func(net.Conn)) *Serving {
	s := &Serving{ln: ln, handle: handle, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s
}

func (s *Serving) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handle(conn)
		}()
	}
}

// Close shuts the listener and every accepted connection, which ends the
// accept loop and each handler's reads. It does not wait for them; Wait
// does. Idempotent.
func (s *Serving) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	s.ln.Close()
	for conn := range conns {
		conn.Close()
	}
}

// Wait blocks until the accept loop and every handler have returned.
func (s *Serving) Wait() { s.wg.Wait() }
