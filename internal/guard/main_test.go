package guard

import (
	"testing"

	"lera/internal/leakcheck"
)

// TestMain fails the package's tests when a goroutine they started
// outlives them (internal/leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
