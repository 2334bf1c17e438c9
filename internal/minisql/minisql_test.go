package minisql

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newTaxiDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable("rides", []string{"ts", "distance", "city"}); err != nil {
		t.Fatal(err)
	}
	rows := [][]Value{
		{Number(1), Number(0.5), Text("New York")},
		{Number(2), Number(1.5), Text("New York")},
		{Number(3), Number(12.0), Text("New York")},
		{Number(4), Number(3.3), Text("Boston")},
		{Number(5), Null(), Text("New York")},
	}
	for _, row := range rows {
		if err := db.Insert("rides", row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT a, 'it''s' FROM t WHERE x >= 1.5e2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []tokenKind{tokKeyword, tokIdent, tokSymbol, tokString, tokKeyword,
		tokIdent, tokKeyword, tokIdent, tokSymbol, tokNumber, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[3].text != "it's" {
		t.Errorf("string literal = %q", toks[3].text)
	}
	if toks[9].num != 150 {
		t.Errorf("number = %v", toks[9].num)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Error("expected unterminated string error")
	}
	if _, err := lex("SELECT #"); err == nil {
		t.Error("expected bad character error")
	}
}

func TestParseSelectShapes(t *testing.T) {
	good := []string{
		"SELECT * FROM t",
		"SELECT a, b FROM t",
		"SELECT a AS x FROM t WHERE b = 1",
		"SELECT distance FROM rides WHERE city = 'San Francisco'",
		"SELECT a FROM t WHERE a > 1 AND b < 2 OR NOT c = 3",
		"SELECT a FROM t WHERE a IN (1, 2, 3)",
		"SELECT a FROM t WHERE a NOT IN (1, 2)",
		"SELECT a FROM t WHERE name LIKE 'San%'",
		"SELECT a FROM t WHERE name NOT LIKE '%x%'",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 5",
		"SELECT a FROM t WHERE a NOT BETWEEN 1 AND 5",
		"SELECT a FROM t WHERE a IS NULL",
		"SELECT a FROM t WHERE a IS NOT NULL",
		"SELECT a + b * 2 FROM t LIMIT 10",
		"SELECT -a FROM t",
		"SELECT (a + 1) * 2 FROM t",
	}
	for _, sql := range good {
		if _, err := Parse(sql); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
	bad := []string{
		"",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t garbage",
		"SELECT a FROM t LIMIT x",
		"INSERT INTO t",
		"INSERT INTO t VALUES (1, 'x')",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a)",
		"DROP TABLE t",
		// INSERT, INTO, VALUES, CREATE and TABLE stay keywords, so a
		// SELECT naming a column after one is refused as it always was.
		"SELECT values FROM t",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): expected error", sql)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	or, ok := sel.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top operator = %+v, want OR", sel.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right of OR = %+v, want AND", or.R)
	}
	// 1 + 2 * 3 parses as 1 + (2*3).
	stmt2, err := Parse("SELECT 1 + 2 * 3 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	add := stmt2.(*SelectStmt).Items[0].Expr.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top arithmetic = %q, want +", add.Op)
	}
	if mul, ok := add.R.(*BinaryExpr); !ok || mul.Op != "*" {
		t.Fatal("multiplication should bind tighter")
	}
}

func TestSelectBasics(t *testing.T) {
	db := newTaxiDB(t)
	rows, err := db.Query("SELECT distance FROM rides WHERE city = 'New York'")
	if err != nil {
		t.Fatal(err)
	}
	// NULL distance row matches city but still returns its NULL distance.
	if len(rows.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows.Rows))
	}
	if rows.Columns[0] != "distance" {
		t.Errorf("column = %q", rows.Columns[0])
	}
}

func TestSelectStarAndAlias(t *testing.T) {
	db := newTaxiDB(t)
	rows, err := db.Query("SELECT * FROM rides LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 3 || len(rows.Rows) != 2 {
		t.Fatalf("star select: %d cols %d rows", len(rows.Columns), len(rows.Rows))
	}
	rows, err = db.Query("SELECT distance * 2 AS dbl FROM rides WHERE ts = 2")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Columns[0] != "dbl" || rows.Rows[0][0].Num != 3 {
		t.Errorf("alias select = %v %v", rows.Columns, rows.Rows)
	}
}

func TestWhereNullSemantics(t *testing.T) {
	db := newTaxiDB(t)
	// NULL never satisfies a comparison.
	rows, err := db.Query("SELECT ts FROM rides WHERE distance > 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 4 {
		t.Errorf("NULL row leaked into comparison: %d rows", len(rows.Rows))
	}
	rows, err = db.Query("SELECT ts FROM rides WHERE distance IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 1 || rows.Rows[0][0].Num != 5 {
		t.Errorf("IS NULL = %v", rows.Rows)
	}
	rows, err = db.Query("SELECT ts FROM rides WHERE distance IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 4 {
		t.Errorf("IS NOT NULL = %d rows", len(rows.Rows))
	}
	// NOT NULL → NULL → excluded.
	rows, err = db.Query("SELECT ts FROM rides WHERE NOT (distance > 0)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 0 {
		t.Errorf("NOT over NULL leaked: %v", rows.Rows)
	}
}

func TestLikeInBetween(t *testing.T) {
	db := newTaxiDB(t)
	rows, err := db.Query("SELECT ts FROM rides WHERE city LIKE 'new%'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 4 {
		t.Errorf("LIKE case-insensitive prefix: %d rows", len(rows.Rows))
	}
	rows, err = db.Query("SELECT ts FROM rides WHERE city LIKE '_oston'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 1 {
		t.Errorf("LIKE underscore: %d rows", len(rows.Rows))
	}
	rows, err = db.Query("SELECT ts FROM rides WHERE ts IN (1, 3, 99)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 2 {
		t.Errorf("IN: %d rows", len(rows.Rows))
	}
	rows, err = db.Query("SELECT ts FROM rides WHERE distance BETWEEN 1 AND 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 2 {
		t.Errorf("BETWEEN: %d rows", len(rows.Rows))
	}
	rows, err = db.Query("SELECT ts FROM rides WHERE ts NOT IN (1, 2, 3, 4)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 1 {
		t.Errorf("NOT IN: %d rows", len(rows.Rows))
	}
}

func TestArithmetic(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("t", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", []Value{Number(10)}); err != nil {
		t.Fatal(err)
	}
	cases := map[string]float64{
		"SELECT a + 5 FROM t":     15,
		"SELECT a - 5 FROM t":     5,
		"SELECT a * 2 FROM t":     20,
		"SELECT a / 4 FROM t":     2.5,
		"SELECT a % 3 FROM t":     1,
		"SELECT -a FROM t":        -10,
		"SELECT (a+2)*3 FROM t":   36,
		"SELECT 2 + a * 2 FROM t": 22,
	}
	for sql, want := range cases {
		rows, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := rows.Rows[0][0].Num; got != want {
			t.Errorf("%s = %v, want %v", sql, got, want)
		}
	}
	// Division by zero yields NULL, SQLite style.
	rows, err := db.Query("SELECT a / 0 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Rows[0][0].IsNull() {
		t.Errorf("a/0 = %v, want NULL", rows.Rows[0][0])
	}
}

func TestInsertAndErrors(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("t", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t", []string{"a"}); !errors.Is(err, ErrTableExist) {
		t.Errorf("duplicate create: %v", err)
	}
	for _, row := range [][]Value{{Number(1), Text("x")}, {Number(2), Text("y")}} {
		if err := db.Insert("t", row); err != nil {
			t.Fatal(err)
		}
	}
	n, err := db.RowCount("t")
	if err != nil || n != 2 {
		t.Errorf("RowCount = %d, %v", n, err)
	}
	if err := db.Insert("t", []Value{Number(1)}); !errors.Is(err, ErrArity) {
		t.Errorf("arity: %v", err)
	}
	if err := db.Insert("missing", []Value{Number(1)}); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table: %v", err)
	}
	if _, err := db.Query("SELECT nope FROM t"); !errors.Is(err, ErrColumn) {
		t.Errorf("unknown column: %v", err)
	}
	if _, err := db.Query("SELECT a FROM missing"); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table select: %v", err)
	}
	if _, err := db.Query("INSERT INTO t VALUES (3, 'z')"); !errors.Is(err, ErrSyntax) {
		t.Errorf("Query must reject non-SELECT: %v", err)
	}
}

func TestQueryPreparedMatchesQuery(t *testing.T) {
	db := newTaxiDB(t)
	sql := "SELECT distance FROM rides WHERE city = 'New York' AND distance IS NOT NULL"
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := db.QueryPrepared(stmt.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(prepared.Rows) != len(direct.Rows) {
		t.Errorf("prepared %d rows vs direct %d rows", len(prepared.Rows), len(direct.Rows))
	}
}

// Property: WHERE filtering matches a hand-rolled Go predicate.
func TestWhereEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		if err := db.CreateTable("t", []string{"x", "y"}); err != nil {
			return false
		}
		type rec struct{ x, y float64 }
		var recs []rec
		for i := 0; i < 200; i++ {
			r := rec{x: float64(rng.Intn(20)), y: float64(rng.Intn(20))}
			recs = append(recs, r)
			if err := db.Insert("t", []Value{Number(r.x), Number(r.y)}); err != nil {
				return false
			}
		}
		lo := float64(rng.Intn(10))
		hi := lo + float64(rng.Intn(10))
		sql := fmt.Sprintf("SELECT x FROM t WHERE x >= %g AND x < %g OR y = %g", lo, hi, lo)
		rows, err := db.Query(sql)
		if err != nil {
			return false
		}
		want := 0
		for _, r := range recs {
			if r.x >= lo && r.x < hi || r.y == lo {
				want++
			}
		}
		return len(rows.Rows) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("t", []string{"v"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := db.Insert("t", []Value{Number(float64(i))}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Query("SELECT v FROM t WHERE v > 100"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	n, err := db.RowCount("t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 800 {
		t.Errorf("RowCount = %d, want 800", n)
	}
}

func TestValueCoercions(t *testing.T) {
	if v, err := Text("42").AsNumber(); err != nil || v != 42 {
		t.Errorf("text coercion = %v, %v", v, err)
	}
	if _, err := Text("abc").AsNumber(); err == nil {
		t.Error("expected coercion error")
	}
	if _, err := Null().AsNumber(); err == nil {
		t.Error("expected null coercion error")
	}
	if v, err := Bool(true).AsNumber(); err != nil || v != 1 {
		t.Errorf("bool coercion = %v, %v", v, err)
	}
	if !Number(0).Equal(Bool(false)).B {
		t.Error("0 should equal false")
	}
	if Null().Equal(Null()).Kind != KindNull {
		t.Error("NULL = NULL should be NULL")
	}
	if Number(1).Equal(Text("banana")).B {
		t.Error("1 should not equal 'banana'")
	}
	if Null().Truthy() {
		t.Error("NULL should not be truthy")
	}
	if !Text("x").Truthy() || Text("").Truthy() {
		t.Error("text truthiness wrong")
	}
}

func TestValueStringAndKind(t *testing.T) {
	if Null().String() != "NULL" || Number(1.5).String() != "1.5" ||
		Text("hi").String() != "hi" || Bool(true).String() != "true" || Bool(false).String() != "false" {
		t.Error("String renderings wrong")
	}
	for k, want := range map[Kind]string{KindNull: "null", KindNumber: "number", KindText: "text", KindBool: "bool"} {
		if k.String() != want {
			t.Errorf("Kind %d = %q", k, k.String())
		}
	}
}

func TestCompareTextAndErrors(t *testing.T) {
	c, err := Text("apple").Compare(Text("banana"))
	if err != nil || c >= 0 {
		t.Errorf("text compare = %d, %v", c, err)
	}
	if _, err := Null().Compare(Number(1)); err == nil {
		t.Error("expected error comparing NULL")
	}
	if _, err := Text("abc").Compare(Number(1)); err == nil {
		t.Error("expected error comparing non-numeric text to number")
	}
}
