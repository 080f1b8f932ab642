package server

import "lera/internal/core"

// SlowLog exposes the ring.
func (s *Server) SlowLog() *core.SlowLog { return s.slow }
