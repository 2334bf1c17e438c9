package minisql

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Errors reported by the database layer.
var (
	ErrNoTable    = errors.New("minisql: no such table")
	errTableExist = errors.New("minisql: table already exists")
	errArity      = errors.New("minisql: wrong number of values")
)

// DB is an in-memory, concurrency-safe database of dynamically typed
// tables: one per client device, holding the user's private stream.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
}

// table stores its cells column by column: a client's table is a handful
// of columns of numbers, and a numeric column is one pointer-free
// []float64 the collector never scans. There is no per-row object.
type table struct {
	cols []column
	rows int
}

// column holds one column's cells. num has a slot for every row: the
// number, a bool as 0/1, 0 for NULL and text. While the cells are all of
// one kind, kind is it and kinds is nil; the first cell of another kind
// gives the column a slot per row in kinds from then on. str is nil
// until the column holds text, then also has a slot per row ("" where
// the cell is not text).
type column struct {
	name  string // as created, for SELECT *
	key   string // lower-cased, for binding
	kind  Kind
	kinds []uint8
	num   []float64
	str   []string
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*table)}
}

// CreateTable creates a table programmatically.
func (db *DB) CreateTable(name string, columns []string) error {
	if name == "" || len(columns) == 0 {
		return fmt.Errorf("%w: table %q with %d columns", errSyntax, name, len(columns))
	}
	t := &table{cols: make([]column, 0, len(columns))}
	for _, c := range columns {
		key := strings.ToLower(c)
		if lookup(t.cols, key) >= 0 {
			return fmt.Errorf("%w: duplicate column %q", errSyntax, c)
		}
		t.cols = append(t.cols, column{name: c, key: key})
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("%w: %q", errTableExist, name)
	}
	db.tables[key] = t
	return nil
}

// lookup returns the index of the column whose lower-cased name is key,
// or -1. A table has a handful of columns, so a linear search is the
// index.
func lookup(cols []column, key string) int {
	for i := range cols {
		if cols[i].key == key {
			return i
		}
	}
	return -1
}

// load writes the cell at row r into dst as a canonical Value: the kind
// and its one payload field. It stores field by field, not a Value built
// elsewhere and copied: that copy's wide loads would stall on the narrow
// stores that just built it.
func (c *column) load(r int, dst *Value) {
	k := c.kind
	if c.kinds != nil {
		k = Kind(c.kinds[r])
	}
	dst.Kind = k
	dst.Num = 0
	dst.Str = ""
	dst.B = false
	switch k {
	case KindNumber:
		dst.Num = c.num[r]
	case KindText:
		dst.Str = c.str[r]
	case kindBool:
		dst.B = c.num[r] != 0
	}
}

// row copies row r's cells into dst, which has one slot per column.
func (t *table) row(r int, dst []Value) {
	for i := range t.cols {
		t.cols[i].load(r, &dst[i])
	}
}

// add appends v as the cell of a new last row; the column holds rows
// cells before it.
func (c *column) add(v Value, rows int) {
	switch {
	case rows == 0:
		c.kind = v.Kind
	case c.kinds == nil && v.Kind != c.kind:
		c.kinds = make([]uint8, rows, rows+1)
		for i := range c.kinds {
			c.kinds[i] = uint8(c.kind)
		}
	}
	if c.kinds != nil {
		c.kinds = append(c.kinds, uint8(v.Kind))
	}
	var x float64
	switch v.Kind {
	case KindNumber:
		x = v.Num
	case kindBool:
		if v.B {
			x = 1
		}
	}
	c.num = append(c.num, x)
	if v.Kind == KindText && c.str == nil {
		c.str = make([]string, rows, rows+1)
	}
	if c.str != nil {
		var s string
		if v.Kind == KindText {
			s = v.Str
		}
		c.str = append(c.str, s)
	}
}

// Insert appends one row programmatically — the fast path the client
// runtime uses when ingesting its private stream. A cell whose Kind is not
// one of the four is refused with errType. A stored cell reads back
// canonical (see Value).
func (db *DB) Insert(tableName string, row []Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(tableName)]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	if len(row) != len(t.cols) {
		return fmt.Errorf("%w: %d values for %d columns", errArity, len(row), len(t.cols))
	}
	for i := range row {
		if k := row[i].Kind; k < kindNull || k > kindBool {
			return fmt.Errorf("%w: cell %d is of %v", errType, i, k)
		}
	}
	for i := range t.cols {
		t.cols[i].add(row[i], t.rows)
	}
	t.rows++
	return nil
}

// RowCount returns the number of rows in a table.
func (db *DB) RowCount(tableName string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(tableName)]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	return t.rows, nil
}

// Rows is a query result: column names and materialized rows.
type Rows struct {
	Columns []string
	Rows    [][]Value
}

// Query runs a SELECT statement.
func (db *DB) Query(sql string) (*Rows, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("%w: Query requires SELECT", errSyntax)
	}
	return db.QueryPrepared(sel)
}

// QueryPrepared runs a previously parsed SELECT, skipping the parser,
// and materialises the result. It binds a plan of its own on every call,
// so one statement may be run against many databases from many
// goroutines; a caller that runs the same statement against the same
// database every epoch keeps a Plan and scans instead.
func (db *DB) QueryPrepared(sel *SelectStmt) (*Rows, error) {
	return NewPlan(sel).materialise(db)
}
