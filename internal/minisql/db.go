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
	ErrTableExist = errors.New("minisql: table already exists")
	ErrArity      = errors.New("minisql: wrong number of values")
)

// DB is an in-memory, concurrency-safe database of dynamically typed
// tables: one per client device, holding the user's private stream.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
}

type table struct {
	columns []string
	colIdx  map[string]int
	rows    [][]Value
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*table)}
}

// CreateTable creates a table programmatically.
func (db *DB) CreateTable(name string, columns []string) error {
	if name == "" || len(columns) == 0 {
		return fmt.Errorf("%w: table %q with %d columns", ErrSyntax, name, len(columns))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("%w: %q", ErrTableExist, name)
	}
	t := &table{columns: append([]string(nil), columns...), colIdx: map[string]int{}}
	for i, c := range columns {
		lc := strings.ToLower(c)
		if _, dup := t.colIdx[lc]; dup {
			return fmt.Errorf("%w: duplicate column %q", ErrSyntax, c)
		}
		t.colIdx[lc] = i
	}
	db.tables[key] = t
	return nil
}

// Insert appends one row programmatically — the fast path the client
// runtime uses when ingesting its private stream.
func (db *DB) Insert(tableName string, row []Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(tableName)]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	if len(row) != len(t.columns) {
		return fmt.Errorf("%w: %d values for %d columns", ErrArity, len(row), len(t.columns))
	}
	t.rows = append(t.rows, append([]Value(nil), row...))
	return nil
}

// DeleteWhere removes rows for which pred returns true, returning the
// number removed. Clients prune data that has aged out of every window.
func (db *DB) DeleteWhere(tableName string, pred func(row []Value) bool) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(tableName)]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	kept := t.rows[:0]
	removed := 0
	for _, r := range t.rows {
		if pred(r) {
			removed++
		} else {
			kept = append(kept, r)
		}
	}
	t.rows = kept
	return removed, nil
}

// RowCount returns the number of rows in a table.
func (db *DB) RowCount(tableName string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(tableName)]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	return len(t.rows), nil
}

// Rows is a query result: column names and materialized rows.
type Rows struct {
	Columns []string
	Rows    [][]Value
}

// Exec runs any statement. SELECT returns its rows; INSERT and CREATE
// return an empty result.
func (db *DB) Exec(sql string) (*Rows, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		return db.QueryPrepared(s)
	case *InsertStmt:
		return db.execInsert(s)
	case *CreateStmt:
		if err := db.CreateTable(s.Table, s.Columns); err != nil {
			return nil, err
		}
		return &Rows{}, nil
	default:
		return nil, fmt.Errorf("%w: unsupported statement %T", ErrSyntax, stmt)
	}
}

// Query runs a SELECT statement.
func (db *DB) Query(sql string) (*Rows, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("%w: Query requires SELECT", ErrSyntax)
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

func (db *DB) execInsert(s *InsertStmt) (*Rows, error) {
	for _, rowExprs := range s.Rows {
		row := make([]Value, len(rowExprs))
		for i, e := range rowExprs {
			v, err := evalConst(e)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if err := db.Insert(s.Table, row); err != nil {
			return nil, err
		}
	}
	return &Rows{}, nil
}
