// Semantic demonstrates Section 6: integrity constraints declared in the
// rule language (Figure 10), constraint addition, inconsistency detection
// through implicit domain knowledge (the MEMBER('Cartoon', ...) example of
// §6.1) and predicate simplification (Figure 12) — with engine work
// counters showing that an inconsistent query touches zero tuples.
package main

import (
	"fmt"
	"log"

	"lera"
)

func main() {
	s := lera.NewSession(
		// Figure 10: the Categories domain constraint, declared by the
		// database administrator in the rule language itself.
		lera.WithConstraints(`
rule ic_category: F(x) / ISA(x, SetCategory)
  --> F(x) AND INCLUDE(x, SET('Comedy', 'Adventure', 'Science Fiction', 'Western')) / ;
`),
	)
	if err := s.LoadFilms(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== inconsistent query: films of category 'Cartoon' (not in the enumeration)")
	s.DB.ResetCounters()
	res, err := s.Query("SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  translated:", lera.Format(res.Initial))
	fmt.Println("  rewritten: ", lera.Format(res.Rewritten))
	fmt.Printf("  answers: %d, tuples scanned: %d (inconsistency detected before execution)\n\n",
		len(res.Rows), s.DB.Count.Scanned)

	fmt.Println("== the same query without rewriting")
	s.Rewrite = false
	s.DB.ResetCounters()
	res2, err := s.Query("SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  answers: %d, tuples scanned: %d\n\n", len(res2.Rows), s.DB.Count.Scanned)
	s.Rewrite = true

	fmt.Println("== Figure 12 simplification: a tautological and a contradictory predicate")
	res3, err := s.Query("SELECT Title FROM FILM WHERE Numf > 1 AND Numf <= 1 AND MEMBER('Adventure', Categories)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  rewritten:", lera.Format(res3.Rewritten))
	fmt.Printf("  answers: %d (x > y ∧ x <= y --> false)\n\n", len(res3.Rows))

	res4, err := s.Query("SELECT Title FROM FILM WHERE 2 + 3 = 5 AND Numf = 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  rewritten:", lera.Format(res4.Rewritten))
	fmt.Printf("  answers: %d (constant subexpression folded away)\n", len(res4.Rows))
}
