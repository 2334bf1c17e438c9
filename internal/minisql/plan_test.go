package minisql

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// numbersDB holds one table t(ts, v) of n rows.
func numbersDB(t testing.TB, n int) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable("t", []string{"ts", "v"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Insert("t", []Value{Number(float64(i)), Number(float64(i) / 2)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func mustSelect(t testing.TB, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("%q is not a SELECT", sql)
	}
	return sel
}

// QueryPrepared binds a plan and materialises into one arena: its
// allocation count does not grow with the rows it returns.
func TestQueryPreparedAllocsIndependentOfRows(t *testing.T) {
	sel := mustSelect(t, "SELECT v FROM t")
	for _, n := range []int{1, 50, 1000} {
		db := numbersDB(t, n)
		allocs := testing.AllocsPerRun(100, func() {
			rows, err := db.QueryPrepared(sel)
			if err != nil || len(rows.Rows) != n {
				t.Fatalf("rows=%v err=%v", rows, err)
			}
		})
		// The bound nodes, the arena, the column names, the row headers
		// and the Rows.
		if allocs > 5 {
			t.Errorf("%d rows: %v allocs per QueryPrepared, want ≤ 5", n, allocs)
		}
	}
}

// A kept plan scans without allocating once it is bound.
func TestPlanScanZeroAllocs(t *testing.T) {
	db := numbersDB(t, 50)
	for _, sql := range []string{
		"SELECT v FROM t",
		"SELECT v * 2 AS d, ts FROM t WHERE ts >= 10 AND v BETWEEN 1 AND 20 OR ts IN (1, 2)",
	} {
		p := NewPlan(mustSelect(t, sql))
		sum := 0.0
		visit := func(row []Value) { sum += row[0].Num }
		allocs := testing.AllocsPerRun(100, func() {
			if err := p.Scan(db, visit); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per Scan, want 0", sql, allocs)
		}
		if sum == 0 {
			t.Errorf("%s: visitor saw nothing", sql)
		}
	}
}

func BenchmarkPlanScan(b *testing.B) {
	db := numbersDB(b, 50)
	p := NewPlan(mustSelect(b, "SELECT v FROM t"))
	var last Value
	visit := func(row []Value) { last = row[0] }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Scan(db, visit); err != nil {
			b.Fatal(err)
		}
	}
	if last.IsNull() {
		b.Fatal("scan saw no value")
	}
}

func BenchmarkQueryPrepared(b *testing.B) {
	db := numbersDB(b, 50)
	sel := mustSelect(b, "SELECT v FROM t")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryPrepared(sel); err != nil {
			b.Fatal(err)
		}
	}
}

// exprGen builds random expression trees over the columns of diffTable.
type exprGen struct {
	rng *rand.Rand
	// mayFailBind is set once the generator has emitted something a bind
	// rejects before any row is evaluated.
	mayFailBind bool
}

var diffColumns = []string{"a", "b", "c", "s"}

func (g *exprGen) literal() Expr {
	switch g.rng.Intn(8) {
	case 0:
		return &LiteralExpr{Val: Null()}
	case 1:
		return &LiteralExpr{Val: Bool(g.rng.Intn(2) == 0)}
	case 2:
		return &LiteralExpr{Val: Text(diffTexts[g.rng.Intn(len(diffTexts))])}
	case 3:
		return &LiteralExpr{Val: Number(float64(g.rng.Intn(9)) / 2)}
	default:
		return &LiteralExpr{Val: Number(float64(g.rng.Intn(7) - 2))}
	}
}

func (g *exprGen) column() Expr {
	if g.rng.Intn(60) == 0 {
		g.mayFailBind = true
		return &ColumnExpr{Name: "nope"}
	}
	name := diffColumns[g.rng.Intn(len(diffColumns))]
	if g.rng.Intn(4) == 0 {
		name = strings.ToUpper(name)
	}
	return &ColumnExpr{Name: name}
}

func (g *exprGen) expr(depth int) Expr {
	if depth == 0 || g.rng.Intn(5) == 0 {
		if g.rng.Intn(2) == 0 {
			return g.literal()
		}
		return g.column()
	}
	sub := func() Expr { return g.expr(depth - 1) }
	switch g.rng.Intn(10) {
	case 0:
		return &UnaryExpr{Op: "NOT", X: sub()}
	case 1:
		return &UnaryExpr{Op: "-", X: sub()}
	case 2:
		ops := []string{"+", "-", "*", "/", "%"}
		return &BinaryExpr{Op: ops[g.rng.Intn(len(ops))], L: sub(), R: sub()}
	case 3, 4:
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		return &BinaryExpr{Op: ops[g.rng.Intn(len(ops))], L: sub(), R: sub()}
	case 5:
		return &BinaryExpr{Op: []string{"AND", "OR"}[g.rng.Intn(2)], L: sub(), R: sub()}
	case 6:
		// Mostly a literal text pattern (compiled at bind), sometimes a
		// computed one, sometimes one of the wrong type.
		var pattern Expr = &LiteralExpr{Val: Text(diffPatterns[g.rng.Intn(len(diffPatterns))])}
		if g.rng.Intn(4) == 0 {
			pattern = sub()
		}
		return &BinaryExpr{Op: "LIKE", L: sub(), R: pattern}
	case 7:
		in := &InExpr{X: sub(), Not: g.rng.Intn(2) == 0}
		for i := g.rng.Intn(3) + 1; i > 0; i-- {
			in.List = append(in.List, sub())
		}
		return in
	case 8:
		return &IsNullExpr{X: sub(), Not: g.rng.Intn(2) == 0}
	default:
		return &BetweenExpr{X: sub(), Lo: sub(), Hi: sub(), Not: g.rng.Intn(2) == 0}
	}
}

var (
	diffTexts    = []string{"", "abc", "New York", "3", " 3.5", "inf", "x%", "Boston"}
	diffPatterns = []string{"%", "new%", "_", "%o%", "3", "", "x\\%", "a.c"}
)

// diffTable fills t(a, b, c, s) with NULLs and every kind in every column.
func diffTable(t *testing.T, rng *rand.Rand) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable("t", diffColumns); err != nil {
		t.Fatal(err)
	}
	for n := rng.Intn(12); n > 0; n-- {
		row := make([]Value, len(diffColumns))
		for i := range row {
			switch rng.Intn(7) {
			case 0:
				row[i] = Null()
			case 1:
				row[i] = Bool(rng.Intn(2) == 0)
			case 2, 3:
				row[i] = Text(diffTexts[rng.Intn(len(diffTexts))])
			default:
				row[i] = Number(float64(rng.Intn(13)-4) / 2)
			}
		}
		if err := db.Insert("t", row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sentinelOf names the package error err wraps.
func sentinelOf(err error) error {
	for _, s := range []error{ErrColumn, ErrType, ErrSyntax, ErrNoTable} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// renderRows prints a result with kinds, so NaN equals NaN and 1 differs
// from "1" and from true.
func renderRows(r *Rows) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, r.Columns)
	for _, row := range r.Rows {
		for _, v := range row {
			fmt.Fprintf(&sb, "%v:%s|", v.Kind, v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// The bound evaluator against the interpreter it replaced: identical
// rows, identical error sentinels. The one licensed difference is that
// an unknown column is refused at bind, before any row — the interpreter
// only noticed when a row's evaluation reached the reference.
func TestBoundEvaluatorMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(20260925))
	var compared, nonEmpty, failed, refused int
	for round := 0; round < 300; round++ {
		db := diffTable(t, rng)
		for q := 0; q < 20; q++ {
			g := &exprGen{rng: rng}
			sel := &SelectStmt{Table: "T", Limit: -1}
			for n := rng.Intn(3) + 1; n > 0; n-- {
				switch rng.Intn(5) {
				case 0:
					sel.Items = append(sel.Items, SelectItem{Star: true})
				case 1:
					sel.Items = append(sel.Items, SelectItem{Expr: g.expr(2), Alias: "x"})
				default:
					sel.Items = append(sel.Items, SelectItem{Expr: g.expr(2)})
				}
			}
			if rng.Intn(4) != 0 {
				sel.Where = g.expr(3)
			}
			if rng.Intn(3) == 0 {
				sel.Limit = rng.Intn(4)
			}
			if rng.Intn(100) == 0 {
				sel.Table = "missing"
			}

			want, wantErr := oracleSelect(db, sel)
			got, gotErr := db.QueryPrepared(sel)

			p := NewPlan(sel)
			db.mu.RLock()
			bindErr := p.bind(db)
			db.mu.RUnlock()
			if bindErr != nil && sel.Table != "missing" {
				if !g.mayFailBind || !errors.Is(bindErr, ErrColumn) {
					t.Fatalf("%+v: bind refused a statement it should take: %v", sel, bindErr)
				}
				if !errors.Is(gotErr, ErrColumn) {
					t.Fatalf("%+v: bind said %v, the run said %v", sel, bindErr, gotErr)
				}
				refused++
				continue
			}
			if sentinelOf(gotErr) != sentinelOf(wantErr) {
				t.Fatalf("%+v: bound evaluator err %v, interpreter err %v", sel, gotErr, wantErr)
			}
			if gotErr != nil {
				failed++
				continue
			}
			if g, w := renderRows(got), renderRows(want); g != w {
				t.Fatalf("%+v:\nbound evaluator\n%s\ninterpreter\n%s", sel, g, w)
			}
			// The streaming face of the same plan lends the same rows.
			streamed := &Rows{Columns: got.Columns}
			if err := p.Scan(db, func(row []Value) {
				streamed.Rows = append(streamed.Rows, append([]Value(nil), row...))
			}); err != nil {
				t.Fatalf("%+v: Scan: %v", sel, err)
			}
			if s, w := renderRows(streamed), renderRows(want); s != w {
				t.Fatalf("%+v:\nScan\n%s\ninterpreter\n%s", sel, s, w)
			}
			compared++
			if len(got.Rows) > 0 {
				nonEmpty++
			}
		}
	}
	t.Logf("%d results compared (%d non-empty), %d identical errors, %d refused at bind", compared, nonEmpty, failed, refused)
	if nonEmpty < 1000 || failed < 100 || refused < 10 {
		t.Errorf("generator is degenerate: %d non-empty results, %d errors, %d bind refusals", nonEmpty, failed, refused)
	}
}

func TestLimitZeroReturnsNothing(t *testing.T) {
	db := numbersDB(t, 5)
	for sql, want := range map[string]int{
		"SELECT v FROM t LIMIT 0":              0,
		"SELECT v FROM t WHERE ts > 1 LIMIT 0": 0,
		"SELECT v FROM t LIMIT 1":              1,
		"SELECT v FROM t WHERE ts > 1 LIMIT 9": 3,
	} {
		rows, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Rows) != want {
			t.Errorf("%s: %d rows, want %d", sql, len(rows.Rows), want)
		}
	}
}

func TestModuloByFractionIsNull(t *testing.T) {
	db := numbersDB(t, 1)
	rows, err := db.Query("SELECT 7 % 0.5 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Rows[0][0].IsNull() {
		t.Errorf("7 %% 0.5 = %v, want NULL", rows.Rows[0][0])
	}
}

// A literal LIKE pattern belongs to the plan that bound it: no table of
// compiled patterns outlives the plans, and a pattern that cannot be
// compiled is refused at bind, before any row.
func TestLikePatternsArePerPlan(t *testing.T) {
	db := newTaxiDB(t)
	count := func(p *Plan) int {
		n := 0
		if err := p.Scan(db, func([]Value) { n++ }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	york := NewPlan(mustSelect(t, "SELECT ts FROM rides WHERE city LIKE 'new%'"))
	boston := NewPlan(mustSelect(t, "SELECT ts FROM rides WHERE city LIKE '_oston'"))
	for i := 0; i < 3; i++ {
		if y, b := count(york), count(boston); y != 4 || b != 1 {
			t.Fatalf("pass %d: 'new%%' matched %d rows (want 4), '_oston' %d (want 1)", i, y, b)
		}
	}
	likeOf := func(p *Plan) *regexp.Regexp {
		for _, n := range p.nodes {
			if n.op == opLike {
				return n.like
			}
		}
		return nil
	}
	if y, b := likeOf(york), likeOf(boston); y == nil || b == nil || y == b {
		t.Errorf("compiled patterns %p and %p: want two, one per plan", y, b)
	}
	// The same statement bound twice compiles twice: nothing is shared
	// through the statement either.
	again := NewPlan(york.stmt)
	count(again)
	if likeOf(again) == likeOf(york) {
		t.Error("two plans of one statement share a compiled pattern")
	}

	bad := mustSelect(t, "SELECT ts FROM rides WHERE city LIKE '"+strings.Repeat("_", maxLikePattern+1)+"'")
	empty := NewDB()
	if err := empty.CreateTable("rides", []string{"ts", "city"}); err != nil {
		t.Fatal(err)
	}
	if err := NewPlan(bad).Scan(empty, func([]Value) {}); !errors.Is(err, ErrSyntax) {
		t.Errorf("oversized literal pattern over an empty table: %v, want ErrSyntax at bind", err)
	}
	// A computed pattern is compiled per evaluation and fails there.
	computed := mustSelect(t, "SELECT ts FROM rides WHERE city LIKE city")
	if n := count(NewPlan(computed)); n != 5 {
		t.Errorf("city LIKE city matched %d rows, want 5", n)
	}
}

// A plan follows the table: created after the plan, it binds on the
// first run that finds it; met in another database, it binds again.
func TestPlanBindsLazilyAndRebinds(t *testing.T) {
	p := NewPlan(mustSelect(t, "SELECT v FROM t WHERE ts >= 1"))
	db := NewDB()
	if err := p.Scan(db, func([]Value) {}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("before CREATE: %v, want ErrNoTable", err)
	}
	if err := db.CreateTable("t", []string{"ts", "v"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Insert("t", []Value{Number(float64(i)), Number(float64(10 * i))}); err != nil {
			t.Fatal(err)
		}
	}
	sum := func(db *DB) (s float64) {
		if err := p.Scan(db, func(row []Value) { s += row[0].Num }); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if got := sum(db); got != 30 {
		t.Errorf("first table: sum %v, want 30", got)
	}
	// Same name, other column order.
	other := NewDB()
	if err := other.CreateTable("t", []string{"v", "extra", "ts"}); err != nil {
		t.Fatal(err)
	}
	if err := other.Insert("t", []Value{Number(7), Null(), Number(5)}); err != nil {
		t.Fatal(err)
	}
	if got := sum(other); got != 7 {
		t.Errorf("second table: sum %v, want 7", got)
	}
	if got := sum(db); got != 30 {
		t.Errorf("back on the first table: sum %v, want 30", got)
	}
	// A table that lacks the column is refused, and the plan recovers.
	third := NewDB()
	if err := third.CreateTable("t", []string{"ts"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Scan(third, func([]Value) {}); !errors.Is(err, ErrColumn) {
		t.Errorf("table without v: %v, want ErrColumn", err)
	}
	if got := sum(db); got != 30 {
		t.Errorf("after a refused bind: sum %v, want 30", got)
	}
}

// One parsed statement, eight databases, eight readers with a plan each
// and eight through QueryPrepared, while every table is appended to:
// nothing is written into the shared statement (run with -race).
// Halfway through the readers, each writer stores a text cell and then a
// NULL in the numeric column v, which turns the column mixed under them.
func TestSharedStatementAcrossDatabases(t *testing.T) {
	sel := mustSelect(t, "SELECT v, ts FROM t WHERE ts % 2 = 0 AND v LIKE '%'")
	const dbs, rounds = 8, 200
	check := func(row []Value) {
		if int64(row[1].Num)%2 != 0 {
			t.Errorf("row %v passed WHERE ts %% 2 = 0", row)
		}
		if k := row[0].Kind; k != KindNumber && k != KindText {
			t.Errorf("row %v passed WHERE v LIKE '%%' with a %v v", row, k)
		}
	}
	var wg sync.WaitGroup
	all := make([]*DB, dbs)
	for i := range all {
		db := numbersDB(t, 20)
		all[i] = db
		// half: the plan reader is halfway; mixed: the writer has stored
		// both cells, so the reader's second half runs over a mixed column
		// (written: the writer has returned, failed or not).
		stop, half := make(chan struct{}), make(chan struct{})
		mixed, written := make(chan struct{}), make(chan struct{})
		wg.Add(3)
		go func() {
			defer wg.Done()
			defer close(stop)
			p := NewPlan(sel)
			for r := 0; r < rounds; r++ {
				if r == rounds/2 {
					close(half)
					select {
					case <-mixed:
					case <-written:
					}
				}
				if err := p.Scan(db, check); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rows, err := db.QueryPrepared(sel)
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range rows.Rows {
					check(row)
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer close(written)
			ts := 20.0
			insert := func(v Value) bool {
				err := db.Insert("t", []Value{Number(ts), v})
				if err != nil {
					t.Error(err)
				}
				ts++
				return err == nil
			}
			// A bounded writer: ten numeric rows under the readers' first
			// half, the text cell and the NULL once they are halfway, then
			// at most ten more rows while they read on.
			for i := 0; i < 10; i++ {
				if !insert(Number(ts / 2)) {
					return
				}
			}
			select {
			case <-half:
			case <-stop:
				return
			}
			if !insert(Text("x")) || !insert(Null()) {
				return
			}
			close(mixed)
			for i := 0; i < 10; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if !insert(Number(ts / 2)) {
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, db := range all {
		if v := &db.tables["t"].cols[1]; v.kinds == nil || v.str == nil {
			t.Errorf("db %d: column v never turned mixed", i)
		}
	}
}

// FuzzParse: the parser never panics, accepts nothing but a SELECT (the
// INSERT and CREATE seeds must be refused), and whatever it accepts
// binds or is refused, and runs against a small table, without
// panicking.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT distance FROM rides",
		"SELECT *, ts AS t FROM rides WHERE city LIKE 'new%' AND distance BETWEEN 1 AND 4 LIMIT 2",
		"SELECT -ts % 0.5, NOT (distance > 0) FROM rides WHERE ts IN (1, 'x', NULL) OR city IS NOT NULL",
		"SELECT ts FROM rides WHERE city NOT LIKE distance",
		"INSERT INTO rides VALUES (9, 1 + 2 * 3, 'x'), (10, NULL, TRUE)",
		"CREATE TABLE u (a INT, b TEXT)",
		"SELECT a FROM t LIMIT 1e300",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok {
			t.Fatalf("Parse(%q) accepted a %T", sql, stmt)
		}
		db := newTaxiDB(t)
		streamed := 0
		scanErr := NewPlan(sel).Scan(db, func([]Value) { streamed++ })
		rows, err := db.QueryPrepared(sel)
		if (scanErr == nil) != (err == nil) {
			t.Fatalf("Scan err %v, QueryPrepared err %v", scanErr, err)
		}
		if err == nil && streamed != len(rows.Rows) {
			t.Fatalf("Scan lent %d rows, QueryPrepared returned %d", streamed, len(rows.Rows))
		}
	})
}
