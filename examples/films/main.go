// Films runs the paper's complete running example: the Figure 2 schema,
// the Figure 4 nested view and Figure 5 recursive view, and the Figure
// 3/4/5 queries — each printed in its translated LERA form, its rewritten
// form (showing search merging, nest pushing and the Alexander fixpoint
// reduction), and its answers on a small cast of actors.
package main

import (
	"fmt"
	"log"

	"lera"
	"lera/internal/esql"
)

func main() {
	s := lera.NewSession()
	// The Figure 2 schema, the Figure 4/5 views and the sample instance
	// (actor objects + the three relations).
	if err := s.LoadFilms(); err != nil {
		log.Fatal(err)
	}

	queries := []struct {
		title string
		src   string
	}{
		{"Figure 3 — Adventure films in which Quinn appears", esql.Figure3Query},
		{"Figure 4 — Adventure films where ALL actors earn > 10000", esql.Figure4Query},
		{"Figure 5 — who (transitively) dominates Quinn", esql.Figure5Query},
	}
	for _, q := range queries {
		fmt.Println("==", q.title)
		res, err := s.Query(trim(q.src))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  translated:", lera.Format(res.Initial))
		fmt.Println("  rewritten: ", lera.Format(res.Rewritten))
		fmt.Printf("  rewrite:    %d condition checks, %d rule applications\n",
			res.Stats.ConditionChecks, res.Stats.Applications)
		fmt.Println(indent(lera.FormatResult(res)))
		fmt.Println()
	}
}

func trim(src string) string {
	out := []byte(src)
	for len(out) > 0 && (out[len(out)-1] == '\n' || out[len(out)-1] == ';' || out[len(out)-1] == ' ') {
		out = out[:len(out)-1]
	}
	return string(out)
}

func indent(s string) string {
	out := "  "
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += "  "
		}
	}
	return out
}
