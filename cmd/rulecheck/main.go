// Command rulecheck verifies a rule base: the static lint (unbound
// variables, unregistered externals, arity clashes, divergent self-cycles,
// dangling block/sequence references, shadowed and dead rules) and,
// with --diff, differential semantic testing — every rule is exercised on
// a deterministic generated database and the results before and after the
// rewrite are compared as multisets.
//
//	rulecheck                              check the built-in rule base
//	rulecheck --diff                       ... plus differential testing
//	rulecheck --rules my.rules --diff      ... with implementor rules merged in
//	rulecheck --json                       machine-readable diagnostics
//
// Flags:
//
//	--rules FILE  merge a rule-language file into the base (repeatable;
//	              bare arguments are also treated as rule files)
//	--diff        run the differential semantic tester
//	--seed N      data-generation seed (default 1; outcomes are
//	              deterministic for a fixed seed)
//	--rows N      generated rows per relation (default 4)
//	--timeout D   guard budget applied to each rewrite/execute phase
//	--strict      treat warnings as failures too
//	--json        emit diagnostics as JSON
//
// Exit status: 0 clean, 1 findings at or above the failure threshold,
// 2 usage or setup error (unreadable file, unparsable rules).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"lera"
	"lera/internal/guard"
	"lera/internal/rulecheck"
	"lera/internal/rules"
	"lera/internal/testdb"
)

type fileList []string

func (f *fileList) String() string { return fmt.Sprint(*f) }
func (f *fileList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var files fileList
	flag.Var(&files, "rules", "rule-language file to merge into the base (repeatable)")
	diff := flag.Bool("diff", false, "run differential semantic testing")
	seed := flag.Uint64("seed", 1, "data-generation seed")
	rows := flag.Int("rows", 4, "generated rows per relation")
	timeout := flag.Duration("timeout", 0, "guard budget per rewrite/execute phase (0 = none)")
	strict := flag.Bool("strict", false, "treat warnings as failures")
	asJSON := flag.Bool("json", false, "emit diagnostics as JSON")
	flag.Parse()
	files = append(files, flag.Args()...)

	os.Exit(run(files, *diff, *seed, *rows, *timeout, *strict, *asJSON))
}

func run(files []string, diff bool, seed uint64, rows int, timeout time.Duration, strict, asJSON bool) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "rulecheck:", err)
		return 2
	}

	// The built-in rule base is verified against the paper's Figure 2
	// schema, which exercises scalar, tuple, collection and recursive
	// shapes alike.
	cat, err := testdb.Catalog()
	if err != nil {
		return fail(err)
	}
	rw, err := lera.NewRewriter(cat)
	if err != nil {
		return fail(err)
	}
	rs := rw.RS
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return fail(err)
		}
		parsed, err := rules.Parse(string(src))
		if err != nil {
			return fail(fmt.Errorf("%s: %w", f, err))
		}
		// Merge without re-validating: dangling references become
		// diagnostics (RC008/RC009) rather than hard failures.
		rs.Merge(parsed)
	}

	ds := rulecheck.Lint(rs, rw.Ext, cat)
	if diff {
		dds, err := rulecheck.Diff(context.Background(), rs, rw.Ext, cat, rulecheck.DiffOptions{
			Seed:            seed,
			RowsPerRelation: rows,
			Limits:          guard.Limits{Timeout: timeout},
		})
		ds = append(ds, dds...)
		if err != nil {
			return fail(err)
		}
	}

	errs, warns := rulecheck.Count(ds, rulecheck.SevError), rulecheck.Count(ds, rulecheck.SevWarn)
	if asJSON {
		out := struct {
			Diagnostics []rulecheck.Diagnostic `json:"diagnostics"`
			Errors      int                    `json:"errors"`
			Warnings    int                    `json:"warnings"`
			Fingerprint string                 `json:"ruleFingerprint"`
		}{ds, errs, warns, rs.Fingerprint()}
		if out.Diagnostics == nil {
			out.Diagnostics = []rulecheck.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range ds {
			fmt.Println(d)
		}
		fmt.Printf("rule base: %d rule(s), %d finding(s) — %d error(s), %d warning(s)\n",
			len(rs.RuleOrder), len(ds), errs, warns)
	}
	if errs > 0 || (strict && warns > 0) {
		return 1
	}
	return 0
}
