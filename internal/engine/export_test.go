package engine

// FixMode names the fixpoint strategy a test selects through DB.naive.
type FixMode bool

// Fixpoint strategies.
const (
	SemiNaive FixMode = false
	Naive     FixMode = true
)

// SetFixMode selects db's fixpoint strategy.
func SetFixMode(db *DB, m FixMode) { db.naive = bool(m) }

// SetForceCopy makes every final stage copy its projected cells into arena
// rows (on) or lets a final scan slice them out of the stored rows (off).
func SetForceCopy(on bool) { forceCopy = on }
