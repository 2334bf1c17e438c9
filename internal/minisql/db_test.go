package minisql

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// taxiDB holds the client table of the taxi workload: rides(ts, distance)
// with n rows of numbers.
func taxiDB(t testing.TB, rng *rand.Rand, n int) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable("rides", []string{"ts", "distance"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Insert("rides", []Value{Number(float64(1_700_000_000 + 60*i)), Number(rng.ExpFloat64() * 3)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// A client table is its columns: 2,000 taxi DBs of 50 rows retain about
// 1.6 KB each, of which 1 KB is two pointer-free []float64 (6,432 B when
// every row was a []Value).
func TestTableFootprint(t *testing.T) {
	const dbs = 2000
	for _, tc := range []struct {
		rows int
		max  float64 // bytes retained per DB
	}{
		{50, 2048},
		{1, 744},
	} {
		rng := rand.New(rand.NewSource(int64(tc.rows)))
		keep := make([]*DB, dbs)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = taxiDB(t, rng, tc.rows)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / dbs
		runtime.KeepAlive(keep)
		t.Logf("%d-row DB: %.0f B retained", tc.rows, per)
		if per > tc.max {
			t.Errorf("%d-row DB retains %.0f B, want ≤ %.0f", tc.rows, per, tc.max)
		}
	}
}

// A cell of no known kind cannot be stored in a column: Insert refuses it
// and the table is left as it was.
func TestInsertRefusesUnknownKind(t *testing.T) {
	db := numbersDB(t, 3)
	for _, k := range []Kind{-1, kindBool + 1, 1 << 20} {
		err := db.Insert("t", []Value{Number(1), {Kind: k, Num: 2}})
		if !errors.Is(err, errType) {
			t.Errorf("kind %v: %v, want ErrType", k, err)
		}
	}
	if n, err := db.RowCount("t"); err != nil || n != 3 {
		t.Errorf("RowCount = %d, %v after refused inserts, want 3", n, err)
	}
}

// A stored cell reads back canonical: the kind and its one payload field.
func TestCellsReadBackCanonical(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("t", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	in := []Value{
		{Kind: KindNumber, Num: 2, Str: "stray", B: true},
		{Kind: kindBool, Num: 7, Str: "stray", B: true},
		{Kind: KindText, Num: 7, Str: "x", B: true},
		{Kind: kindNull, Num: 7, Str: "stray", B: true},
	}
	for _, v := range in {
		if err := db.Insert("t", []Value{v}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	want := []Value{Number(2), Bool(true), Text("x"), Null()}
	for i, row := range rows.Rows {
		if row[0] != want[i] {
			t.Errorf("cell %d reads back %#v, want %#v", i, row[0], want[i])
		}
	}
}

// fuzzTexts are the text cells FuzzTable draws from; some of them look
// like numbers, so a comparison across kinds coerces.
var fuzzTexts = []string{"", "x", "3", " -0", "NaN", "inf", "New York"}

// fuzzCell decodes one cell from two fuzz bytes.
func fuzzCell(kind, arg byte) Value {
	switch kind % 8 {
	case 0:
		return Null()
	case 1:
		return Bool(arg%2 == 1)
	case 2:
		return Text(fuzzTexts[int(arg)%len(fuzzTexts)])
	case 3:
		return Number([]float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}[arg%4])
	default:
		return Number(float64(int8(arg)) / 4)
	}
}

// sameValue is cell identity: equal kinds and payloads, NaN equal to NaN
// and -0 different from 0.
func sameValue(a, b Value) bool {
	if a.Kind != b.Kind || a.Str != b.Str || a.B != b.B {
		return false
	}
	return math.Float64bits(a.Num) == math.Float64bits(b.Num) || math.IsNaN(a.Num) && math.IsNaN(b.Num)
}

// FuzzTable drives CreateTable, Insert and RowCount with random
// operations and compares the table with a plain [][]Value model, through
// SELECT * and through a Plan.Scan with a WHERE. Cells are NULL, numbers
// (-0, NaN and ±Inf among them), text and bools, so a column that was all
// numbers meets text or NULL and turns mixed.
func FuzzTable(f *testing.F) {
	// An op byte picks: 0, 1 insert a row (two bytes per cell: kind, arg),
	// 2, 3 check.
	for _, seed := range []struct {
		ncols uint8
		ops   []byte
	}{
		{1, []byte{0, 4, 10, 4, 20, 0, 4, 30, 4, 40, 3, 0, 2, 1, 4, 5, 3}},      // numbers, then text
		{1, []byte{0, 4, 1, 4, 2, 0, 0, 0, 4, 3, 0, 3, 0, 3, 1, 0, 3, 2, 3, 3}}, // numbers, then NULL, -0, NaN, ±Inf
		{3, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 0, 1, 0, 2, 3, 4, 9, 2, 1, 3, 0, 2, 1, 2, 1, 2, 1, 2, 1}},
		{1, []byte{0, 4, 8, 2, 0, 0, 4, 9, 1, 1, 2, 255, 3, 0, 4, 11, 4, 12, 3}},
		// A column turned mixed, checked, then appended to.
		{1, []byte{0, 4, 4, 4, 1, 0, 2, 1, 0, 0, 0, 4, 8, 2, 2, 0, 2, 6, 1, 1, 2, 1, 0, 2, 5, 4, 5, 3}},
	} {
		f.Add(seed.ncols, seed.ops)
	}
	f.Fuzz(func(t *testing.T, ncols uint8, ops []byte) {
		width := 1 + int(ncols)%4
		names := make([]string, width)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		names[0] = strings.ToUpper(names[0]) // bound case-insensitively
		db := NewDB()
		if err := db.CreateTable("t", names); err != nil {
			t.Fatal(err)
		}
		star := NewPlan(mustSelect(t, "SELECT * FROM t"))
		where := NewPlan(mustSelect(t, "SELECT b, a FROM t WHERE a >= 0 OR a IS NULL"))
		var model [][]Value

		check := func() {
			t.Helper()
			if n, err := db.RowCount("t"); err != nil || n != len(model) {
				t.Fatalf("RowCount = %d, %v; model has %d rows", n, err, len(model))
			}
			rows, err := db.QueryPrepared(star.stmt)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows.Rows) != len(model) {
				t.Fatalf("SELECT * returned %d rows; model has %d", len(rows.Rows), len(model))
			}
			for r, row := range rows.Rows {
				for c := range row {
					if !sameValue(row[c], model[r][c]) {
						t.Fatalf("row %d column %d: %#v, model %#v", r, c, row[c], model[r][c])
					}
				}
			}
			seen := 0
			err = star.Scan(db, func(row []Value) {
				for c := range row {
					if !sameValue(row[c], model[seen][c]) {
						t.Fatalf("Scan row %d column %d: %#v, model %#v", seen, c, row[c], model[seen][c])
					}
				}
				seen++
			})
			if err != nil || seen != len(model) {
				t.Fatalf("Scan lent %d rows, err %v; model has %d", seen, err, len(model))
			}
			if width < 2 {
				return
			}
			var want [][]Value
			for _, row := range model {
				a := row[0]
				if a.IsNull() {
					want = append(want, []Value{row[1], a})
					continue
				}
				if c, err := a.Compare(Number(0)); err == nil && c >= 0 {
					want = append(want, []Value{row[1], a})
				}
			}
			// A text cell that does not parse makes the comparison fail,
			// and the scan with it.
			wantErr := false
			for _, row := range model {
				if _, err := row[0].Compare(Number(0)); err != nil && !row[0].IsNull() {
					wantErr = true
					break
				}
			}
			seen = 0
			err = where.Scan(db, func(row []Value) {
				if seen >= len(want) || !sameValue(row[0], want[seen][0]) || !sameValue(row[1], want[seen][1]) {
					t.Fatalf("WHERE scan row %d: %#v", seen, row)
				}
				seen++
			})
			if wantErr {
				if !errors.Is(err, errType) {
					t.Fatalf("WHERE scan over an unparsable text cell: %v, want ErrType", err)
				}
				return
			}
			if err != nil || seen != len(want) {
				t.Fatalf("WHERE scan lent %d rows, err %v; model passes %d", seen, err, len(want))
			}
		}

		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			switch op % 4 {
			case 0, 1: // insert one row, two bytes per cell
				row := make([]Value, width)
				for c := range row {
					var k, a byte
					if len(ops) >= 2 {
						k, a, ops = ops[0], ops[1], ops[2:]
					}
					row[c] = fuzzCell(k, a)
				}
				if err := db.Insert("t", row); err != nil {
					t.Fatal(err)
				}
				model = append(model, row)
			default:
				check()
			}
		}
		check()
	})
}
