package esql

import (
	"strings"
	"testing"

	"lera/internal/guard"
)

func TestParsePrepareExecute(t *testing.T) {
	stmts, err := Parse(`
		PREPARE byNum AS SELECT Title FROM FILM WHERE Numf = $1;
		EXECUTE byNum(7);
		EXECUTE noargs();
		EXECUTE multi(1, 'x', 2.5);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("got %d statements", len(stmts))
	}
	prep, ok := stmts[0].(*PrepareStmt)
	if !ok || prep.Name != "byNum" {
		t.Fatalf("stmt 0 = %#v", stmts[0])
	}
	if n, err := CountParams(prep.Sel); err != nil || n != 1 {
		t.Fatalf("CountParams = %d, %v", n, err)
	}
	ex, ok := stmts[1].(*ExecuteStmt)
	if !ok || ex.Name != "byNum" || len(ex.Args) != 1 {
		t.Fatalf("stmt 1 = %#v", stmts[1])
	}
	if ex := stmts[2].(*ExecuteStmt); len(ex.Args) != 0 {
		t.Fatalf("stmt 2 args = %v", ex.Args)
	}
	if ex := stmts[3].(*ExecuteStmt); len(ex.Args) != 3 {
		t.Fatalf("stmt 3 args = %v", ex.Args)
	}
}

func TestParseParamPlaceholders(t *testing.T) {
	sel, err := ParseQuery("SELECT Title FROM FILM WHERE Numf = $1 AND Numf < $2 OR Numf > $1")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := CountParams(sel); err != nil || n != 2 {
		t.Fatalf("CountParams = %d, %v (repeats allowed)", n, err)
	}
}

func TestParamParseErrors(t *testing.T) {
	for _, bad := range []struct{ src, want string }{
		{"SELECT Title FROM FILM WHERE Numf = $0;", "bad parameter $0"},
		{"SELECT Title FROM FILM WHERE Numf = $;", "expected parameter number"},
		{"SELECT Title FROM FILM WHERE Numf = $x;", "expected parameter number"},
		{"PREPARE p SELECT Title FROM FILM;", `expected "AS"`},
		{"PREPARE p AS INSERT INTO FILM VALUES (1);", "expects a SELECT body"},
		{"EXECUTE p;", `expected "("`},
	} {
		if _, err := Parse(bad.src); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: err = %v, want %q", bad.src, err, bad.want)
		}
	}
}

func TestCountParamsGaps(t *testing.T) {
	sel, err := ParseQuery("SELECT Title FROM FILM WHERE Numf = $2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountParams(sel); err == nil || !strings.Contains(err.Error(), "uses $2 but not $1") {
		t.Fatalf("gap error = %v", err)
	}
}

func TestBindParams(t *testing.T) {
	sel, err := ParseQuery("SELECT Title FROM FILM WHERE Numf = $1 AND Numf < $2")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := BindParams(sel, []Expr{&Lit{}, &Lit{}})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := CountParams(bound); n != 0 {
		t.Fatalf("bound statement still has %d params", n)
	}
	// The original AST is untouched (BindParams deep-copies).
	if n, _ := CountParams(sel); n != 2 {
		t.Fatalf("BindParams mutated the original: %d params left", n)
	}
	if _, err := BindParams(sel, []Expr{&Lit{}}); err == nil ||
		!strings.Contains(err.Error(), "uses $2 but EXECUTE passed 1") {
		t.Fatalf("arity error = %v", err)
	}
}

// TestErrorsAreParse: every error of the package — the lexer's, the
// parser's, a placeholder gap, a missing EXECUTE argument — is PARSE under
// guard.CodeOf, and reads as its own text.
func TestErrorsAreParse(t *testing.T) {
	var errs []error
	for _, src := range []string{
		"SELECT Title FROM FILM WHERE Numf = 1 LIMIT 2;",
		"SELECT Title FROM FILM WHERE Title = 'open",
		"SELECT Title FROM FILM WHERE Numf = 1 # 2;",
		"SELECT Title FROM FILM; SELECT Numf FROM FILM;",
	} {
		_, err := ParseQuery(src)
		errs = append(errs, err)
	}
	sel, err := ParseQuery("SELECT Title FROM FILM WHERE Numf = $2")
	if err != nil {
		t.Fatal(err)
	}
	_, err = CountParams(sel)
	errs = append(errs, err)
	_, err = BindParams(sel, nil)
	errs = append(errs, err)
	for i, err := range errs {
		if code := guard.CodeOf(err); code != guard.CodeParse || !strings.HasPrefix(err.Error(), "esql: ") {
			t.Errorf("error %d: %v is %s, want PARSE and the esql text", i, err, code)
		}
	}
}
