package core

// Prepared reports the registered prepared-statement names with their
// parameter counts (for shells).
func (s *Session) Prepared() map[string]int {
	out := make(map[string]int, len(s.prepared))
	for k, v := range s.prepared {
		out[k] = v.nparams
	}
	return out
}
