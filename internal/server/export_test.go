package server

// SetSerialSlots resizes the CHT-serial table (before the first clone
// arrives) so a test can force live queries to share slots.
func (s *Server) SetSerialSlots(n int) { s.serials = newSerialTable(n) }
