// Extensibility is the paper's headline demonstration: a database
// implementor extends the DBMS with a new ADT (Interval), registers its
// methods in the ADT library (the role C++ played in the paper, played by
// Go here) and adds optimization rules for it in the rule language — all
// without touching the rewrite engine. It ends with the safety nets that
// implementor code runs under: the rule-base verifier, panic isolation
// and the per-query budget.
package main

import (
	_ "embed"
	"errors"
	"fmt"
	"log"

	"lera"
	"lera/internal/value"
)

// The implementor's rules live in their own rule-language file, so the
// rulecheck CLI can verify them exactly as shipped:
//
//	rulecheck --rules examples/extensibility/extension.rules
//
//go:embed extension.rules
var extensionRules string

func main() {
	s := lera.NewSession(
		// The implementor rule: OVERLAPS is symmetric, so the mirror test
		// is redundant and dropped before execution.
		lera.WithRules(extensionRules),
	)

	// Register the Interval methods in the ADT library. OVERLAPS is pure,
	// so the rewriter's EVALUATE folding applies to constant intervals.
	s.Cat.ADTs.Register("OVERLAPS", 2, true, func(args []value.Value) (value.Value, error) {
		lo1, _ := args[0].Field("lo")
		hi1, _ := args[0].Field("hi")
		lo2, _ := args[1].Field("lo")
		hi2, _ := args[1].Field("hi")
		return value.Bool(value.Compare(lo1, hi2) <= 0 && value.Compare(lo2, hi1) <= 0), nil
	})
	s.Cat.ADTs.Register("DURATION", 1, true, func(args []value.Value) (value.Value, error) {
		lo, _ := args[0].Field("lo")
		hi, _ := args[0].Field("hi")
		if lo.K != value.KInt || hi.K != value.KInt {
			return value.Null, fmt.Errorf("DURATION: bounds must be integers, got %s and %s", lo.K, hi.K)
		}
		return value.Int(hi.I - lo.I + 1), nil
	})

	s.MustExec(`
TYPE Interval TUPLE (lo : INT, hi : INT);
TABLE MEETINGS (Id : INT, Room : CHAR, Slot : Interval);

INSERT INTO MEETINGS VALUES
  (1, 'Aquarium', TUPLE(lo: 9, hi: 11)),
  (2, 'Aquarium', TUPLE(lo: 10, hi: 12)),
  (3, 'Obsidian', TUPLE(lo: 14, hi: 15)),
  (4, 'Obsidian', TUPLE(lo: 15, hi: 16));
`)

	// The redundant symmetric OVERLAPS test is eliminated by the
	// implementor's rule before execution.
	res, err := s.Query(`
SELECT M1.Id, M2.Id
FROM MEETINGS M1, MEETINGS M2
WHERE M1.Room = M2.Room
  AND OVERLAPS(M1.Slot, M2.Slot) AND OVERLAPS(M2.Slot, M1.Slot)
  AND M1.Id < M2.Id`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== conflicting meetings (same room, overlapping slots)")
	fmt.Println("  translated:", lera.Format(res.Initial))
	fmt.Println("  rewritten: ", lera.Format(res.Rewritten))
	fmt.Println(lera.FormatResult(res))

	// EVALUATE folds the pure method over constant intervals.
	res2, err := s.Query("SELECT Id FROM MEETINGS WHERE OVERLAPS(TUPLE(lo: 1, hi: 2), TUPLE(lo: 5, hi: 6)) AND Id > 0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== constant OVERLAPS folds at rewrite time")
	fmt.Println("  rewritten:", lera.Format(res2.Rewritten))
	fmt.Printf("  answers: %d\n", len(res2.Rows))

	// Verify the rule base at build time: error-level findings refuse it,
	// advisory ones are kept (docs/RULES.md, "Validating your rules").
	rw, err := lera.NewRewriter(s.Cat, lera.WithRules(extensionRules), lera.WithRuleCheck())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== rule base verified: %d advisory finding(s)\n", len(rw.CheckDiagnostics()))

	// A panic in implementor code fails the query with a typed error that
	// names the external (docs/GUARDRAILS.md, "Panic isolation").
	s.Cat.ADTs.Register("WIDTH", 1, false, func([]value.Value) (value.Value, error) {
		panic("WIDTH is not implemented")
	})
	_, err = s.Query("SELECT Id FROM MEETINGS WHERE WIDTH(Slot) > 1")
	var ee *lera.ExternalError
	if !errors.As(err, &ee) {
		log.Fatalf("want an external error, got %v", err)
	}
	fmt.Printf("\n== %s %s panicked: %v\n", ee.Kind, ee.External, ee.Panic)

	// Every query runs under an optional budget; exceeding one is a typed
	// error with a stable protocol code (docs/GUARDRAILS.md).
	s.Limits = lera.Limits{MaxRows: 2}
	_, err = s.Query("SELECT Id FROM MEETINGS")
	if !errors.Is(err, lera.ErrRowBudget) {
		log.Fatalf("want the row budget error, got %v", err)
	}
	fmt.Printf("\n== a 2-row budget stops a 4-row scan: %s\n", lera.CodeOf(err))
}
