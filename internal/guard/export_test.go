package guard

// Draining reports whether the gate has started draining.
func (g *Gate) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}
