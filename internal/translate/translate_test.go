package translate

import (
	"context"
	"sort"
	"strings"
	"testing"

	"lera/internal/catalog"
	"lera/internal/engine"
	"lera/internal/esql"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/value"
)

// query parses and translates a single SELECT.
func query(cat *catalog.Catalog, src string) (*term.Term, error) {
	s, err := esql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return Select(cat, s)
}

// figure2Catalog builds the catalog by *parsing and translating* the
// Figure 2 DDL, exercising the whole declaration pipeline.
func figure2Catalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	stmts, err := esql.Parse(esql.Figure2DDL)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		switch d := s.(type) {
		case *esql.TypeDecl:
			if err := DeclareType(cat, d); err != nil {
				t.Fatal(err)
			}
		case *esql.TableDecl:
			if err := DeclareTable(cat, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cat
}

func TestFigure2Declarations(t *testing.T) {
	cat := figure2Catalog(t)
	if !cat.Types.ISAName("Actor", "Person") {
		t.Error("Actor ISA Person")
	}
	film, ok := cat.Relation("FILM")
	if !ok || len(film.Columns) != 3 {
		t.Fatalf("FILM = %+v", film)
	}
	if film.Columns[2].Type.Name != "SetCategory" {
		t.Errorf("Categories type = %s", film.Columns[2].Type)
	}
	dom, _ := cat.Relation("DOMINATE")
	if !dom.Columns[1].Type.IsObject {
		t.Error("Refactor1 must be an object type")
	}
	// Duplicate declarations fail.
	stmts, _ := esql.Parse("TABLE FILM (a : INT);")
	if err := DeclareTable(cat, stmts[0].(*esql.TableDecl)); err == nil {
		t.Error("duplicate table must fail")
	}
	// Unknown types fail.
	stmts2, _ := esql.Parse("TABLE X (a : NoSuchType);")
	if err := DeclareTable(cat, stmts2[0].(*esql.TableDecl)); err == nil {
		t.Error("unknown column type must fail")
	}
	stmts3, _ := esql.Parse("TYPE X SUBTYPE OF Nope OBJECT TUPLE (a : INT);")
	if err := DeclareType(cat, stmts3[0].(*esql.TypeDecl)); err == nil {
		t.Error("unknown supertype must fail")
	}
}

// TestFigure3 reproduces the paper's §3.1 translation byte for byte
// (conjunct order and '=' operand order are canonical; the FROM order of
// the paper's translation, (APPEARS_IN, FILM), is used in the query).
func TestFigure3(t *testing.T) {
	cat := figure2Catalog(t)
	q, err := query(cat, `
SELECT Title, Categories, Salary(Refactor)
FROM APPEARS_IN, FILM
WHERE FILM.Numf = APPEARS_IN.Numf
  AND Name(Refactor) = 'Quinn'
  AND MEMBER('Adventure', Categories)`)
	if err != nil {
		t.Fatal(err)
	}
	got := lera.Format(q)
	want := "search((APPEARS_IN, FILM), [1.1=2.1 ∧ name(1.2)='Quinn' ∧ member('Adventure', 2.3)], (2.2, 2.3, salary(1.2)))"
	if got != want {
		t.Errorf("Figure 3 translation:\n got %s\nwant %s", got, want)
	}
	if err := lera.Validate(q); err != nil {
		t.Errorf("validate: %v", err)
	}
	if _, err := lera.Infer(q, cat, nil); err != nil {
		t.Errorf("infer: %v", err)
	}
}

// TestFigure4 translates the nested view and its ALL query, then runs the
// query end to end on the sample instance.
func TestFigure4(t *testing.T) {
	cat := figure2Catalog(t)
	stmts, err := esql.Parse(esql.Figure4View)
	if err != nil {
		t.Fatal(err)
	}
	view, err := DeclareView(cat, stmts[0].(*esql.ViewDecl))
	if err != nil {
		t.Fatal(err)
	}
	if view.Recursive {
		t.Error("FilmActors is not recursive")
	}
	if !lera.IsOp(view.Def, lera.OpNest) {
		t.Fatalf("view def = %s", lera.Format(view.Def))
	}
	if view.Columns[2].Name != "Actors" {
		t.Errorf("view columns = %v", view.Columns)
	}
	q, err := query(cat, `
SELECT Title
FROM FilmActors
WHERE MEMBER('Adventure', Categories) AND ALL(Salary(Actors) > 10000)`)
	if err != nil {
		t.Fatal(err)
	}
	// Execute on the sample instance.
	db := loadedDB(t, cat)
	r, err := db.EvalCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	titles := column(r, 1)
	if len(titles) != 2 || titles[0] != "'Casablanca'" || titles[1] != "'Lawrence of Arabia'" {
		t.Errorf("titles = %v", titles)
	}
}

// TestFixpointFigure5 checks the recursive view's translation against the
// §3.2 fix expression and executes the Figure 5 query.
func TestFixpointFigure5(t *testing.T) {
	cat := figure2Catalog(t)
	stmts, err := esql.Parse(esql.Figure5View)
	if err != nil {
		t.Fatal(err)
	}
	view, err := DeclareView(cat, stmts[0].(*esql.ViewDecl))
	if err != nil {
		t.Fatal(err)
	}
	if !view.Recursive {
		t.Fatal("BETTER_THAN must be recursive")
	}
	got := lera.Format(view.Def)
	want := "fix(BETTER_THAN, union({search((DOMINATE), [true], (1.2, 1.3)), search((BETTER_THAN, BETTER_THAN), [1.2=2.1], (1.1, 2.2))}))"
	if got != want {
		t.Errorf("fix translation:\n got %s\nwant %s", got, want)
	}
	q, err := query(cat, `
SELECT Name(Refactor1)
FROM BETTER_THAN
WHERE Name(Refactor2) = 'Quinn'`)
	if err != nil {
		t.Fatal(err)
	}
	db := loadedDB(t, cat)
	r, err := db.EvalCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got2 := column(r, 1)
	var want2 []string
	for _, n := range testdb.DominatorsOfQuinn() {
		want2 = append(want2, "'"+n+"'")
	}
	if strings.Join(got2, ",") != strings.Join(want2, ",") {
		t.Errorf("dominators = %v, want %v", got2, want2)
	}
}

func TestViewExpansionInQueries(t *testing.T) {
	cat := figure2Catalog(t)
	mustDeclare(t, cat, "CREATE VIEW AdventureFilms (Numf, Title) AS SELECT Numf, Title FROM FILM WHERE MEMBER('Adventure', Categories);")
	q, err := query(cat, "SELECT Title FROM AdventureFilms WHERE Numf = 1")
	if err != nil {
		t.Fatal(err)
	}
	// The view body appears inline: a search over a search.
	if lera.SearchCount(q) != 2 {
		t.Errorf("expected nested searches, got %s", lera.Format(q))
	}
	db := loadedDB(t, cat)
	r, err := db.EvalCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].S != "Lawrence of Arabia" {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestInsertTranslation(t *testing.T) {
	cat := figure2Catalog(t)
	stmts, err := esql.Parse(`
INSERT INTO FILM VALUES
  (5, 'Stagecoach', SET('Western')),
  (6, 'Sunset', SET('Comedy', 'Western'));`)
	if err != nil {
		t.Fatal(err)
	}
	name, rows, err := Insert(cat, stmts[0].(*esql.InsertStmt))
	if err != nil {
		t.Fatal(err)
	}
	if name != "FILM" || len(rows) != 2 {
		t.Fatalf("insert = %s %v", name, rows)
	}
	if rows[1][2].K != value.KSet || rows[1][2].Len() != 2 {
		t.Errorf("set literal = %v", rows[1][2])
	}
	// Arithmetic and tuple literals fold.
	stmts2, _ := esql.Parse("INSERT INTO X VALUES (1 + 2, TUPLE(Pros: 1, Cons: 2), LIST(TUPLE(Pros: 1, Cons: 0)));")
	_, rows2, err := Insert(cat, stmts2[0].(*esql.InsertStmt))
	if err != nil {
		t.Fatal(err)
	}
	if rows2[0][0].I != 3 || rows2[0][1].K != value.KTuple {
		t.Errorf("folded = %v", rows2[0])
	}
	// Non-literals fail.
	stmts3, _ := esql.Parse("INSERT INTO X VALUES (Title);")
	if _, _, err := Insert(cat, stmts3[0].(*esql.InsertStmt)); err == nil {
		t.Error("column reference in VALUES must fail")
	}
}

func TestTranslationErrors(t *testing.T) {
	cat := figure2Catalog(t)
	bad := []string{
		"SELECT x FROM NOSUCH",
		"SELECT NoCol FROM FILM",
		"SELECT Numf FROM FILM, APPEARS_IN",                                         // ambiguous
		"SELECT F.Numf FROM FILM",                                                   // unknown alias
		"SELECT FILM.NoCol FROM FILM",                                               // unknown column
		"SELECT Title, MakeSet(Numf) FROM FILM",                                     // MakeSet without GROUP BY
		"SELECT Title FROM FILM GROUP BY Title",                                     // GROUP BY without MakeSet
		"SELECT MakeSet(Numf), Title FROM FILM GROUP BY Title",                      // MakeSet before grouped col
		"SELECT Numf, MakeSet(Title) FROM FILM GROUP BY Title",                      // ungrouped projection
		"SELECT MakeSet(Numf, Title) FROM FILM GROUP BY Title",                      // arity
		"SELECT Title, MakeSet(Numf), MakeSet(Categories) FROM FILM GROUP BY Title", // two MakeSets
	}
	for _, src := range bad {
		if _, err := query(cat, src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
	// Recursive view without column list.
	stmts, _ := esql.Parse("CREATE VIEW V AS SELECT Refactor1, Refactor2 FROM DOMINATE UNION SELECT V.Refactor1, V.Refactor2 FROM V V;")
	if _, err := DeclareView(cat, stmts[0].(*esql.ViewDecl)); err == nil {
		t.Error("recursive view without columns must fail")
	}
	// View column arity mismatch.
	stmts2, _ := esql.Parse("CREATE VIEW W (a, b) AS SELECT Numf FROM FILM;")
	if _, err := DeclareView(cat, stmts2[0].(*esql.ViewDecl)); err == nil {
		t.Error("view arity mismatch must fail")
	}
}

func TestAliasesAndQualifiers(t *testing.T) {
	cat := figure2Catalog(t)
	q, err := query(cat, `
SELECT D1.Numf FROM DOMINATE D1, DOMINATE D2
WHERE D1.Refactor2 = D2.Refactor1`)
	if err != nil {
		t.Fatal(err)
	}
	got := lera.Format(q)
	if got != "search((DOMINATE, DOMINATE), [1.3=2.2], (1.1))" {
		t.Errorf("aliased = %s", got)
	}
}

func TestOrTranslation(t *testing.T) {
	cat := figure2Catalog(t)
	q, err := query(cat, "SELECT Title FROM FILM WHERE Numf = 1 OR Numf = 2")
	if err != nil {
		t.Fatal(err)
	}
	db := loadedDB(t, cat)
	r, err := db.EvalCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Errorf("rows = %v", r.Rows)
	}
}

// --- helpers ---

func mustDeclare(t *testing.T, cat *catalog.Catalog, src string) {
	t.Helper()
	stmts, err := esql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		switch d := s.(type) {
		case *esql.ViewDecl:
			if _, err := DeclareView(cat, d); err != nil {
				t.Fatal(err)
			}
		case *esql.TableDecl:
			if err := DeclareTable(cat, d); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func loadedDB(t *testing.T, cat *catalog.Catalog) *engine.DB {
	t.Helper()
	inst, err := testdb.Data()
	if err != nil {
		t.Fatal(err)
	}
	db := engine.New(cat)
	for name, rows := range inst.Rows {
		if err := db.Load(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	for oid, obj := range inst.Objects {
		db.SetObject(oid, obj)
	}
	return db
}

func column(r *engine.Relation, j int) []string {
	var out []string
	for _, row := range r.Rows {
		out = append(out, row[j-1].String())
	}
	sort.Strings(out)
	return out
}
