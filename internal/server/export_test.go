package server

import "time"

// Records returns how many per-query records the server holds.
func (s *Server) Records() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.queries)
}

// Sweep runs one sweep of the records idle longer than age.
func (s *Server) Sweep(age time.Duration) { s.sweep(age) }
