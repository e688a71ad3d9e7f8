package handoff

// Joined reports whether s joined the poller at any time in its life:
// Close leaves the record.
func Joined(s *Socket) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.file != nil
}
