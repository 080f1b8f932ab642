// Command esqlc compiles ESQL: it executes DDL and INSERT statements
// against an in-memory session and, for each SELECT, prints the
// translated LERA form, the rewritten form, an optional rule-application
// trace, and the answers.
//
// Usage:
//
//	esqlc [-explain] [-no-rewrite] [-dynamic] [file.esql ...]
//
// With no files, statements are read from standard input.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lera"
	"lera/internal/esql"
	"lera/internal/translate"
)

func main() {
	explain := flag.Bool("explain", false, "print the rule-application trace for each query")
	noRewrite := flag.Bool("no-rewrite", false, "skip the rewriter (translate and execute only)")
	dynamic := flag.Bool("dynamic", false, "enable dynamic block limits (paper §7)")
	flag.Parse()

	var src []byte
	if flag.NArg() == 0 {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		src = b
	} else {
		for _, f := range flag.Args() {
			b, err := os.ReadFile(f)
			if err != nil {
				fatal(err)
			}
			src = append(src, b...)
			src = append(src, '\n')
		}
	}

	var opts []lera.Option
	if *explain {
		opts = append(opts, lera.WithTrace())
	}
	if *dynamic {
		opts = append(opts, lera.WithDynamicLimits())
	}
	s := lera.NewSession(opts...)
	s.Rewrite = !*noRewrite

	stmts, err := esql.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	for _, st := range stmts {
		switch q := st.(type) {
		case *esql.Select:
			t, err := translate.Select(s.Cat, q)
			if err != nil {
				fatal(err)
			}
			fmt.Println("-- translated:", lera.Format(t))
			res, err := s.ExecSelect(q)
			if err != nil {
				fatal(err)
			}
			if s.Rewrite {
				fmt.Println("-- rewritten: ", lera.Format(res.Rewritten))
				if res.Stats != nil {
					fmt.Printf("-- rewrite stats: %d condition checks, %d applications, %d rounds\n",
						res.Stats.ConditionChecks, res.Stats.Applications, res.Stats.Rounds)
					// Empty unless -explain armed WithTrace.
					for i, tr := range res.Stats.Trace {
						fmt.Printf("--   %2d. [%s/%s] %s ==> %s\n", i+1, tr.Block, tr.Rule, tr.Before, tr.After)
					}
				}
			}
			fmt.Println(lera.FormatResult(res))
			fmt.Println()
		default:
			rs, err := s.ExecStmt(st)
			if err != nil {
				fatal(err)
			}
			fmt.Println("--", rs.Message)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "esqlc:", err)
	os.Exit(1)
}
