package minisql

import (
	"fmt"
	"strings"
)

// The name-resolving interpreter the bound evaluator replaced, kept as
// the oracle of TestBoundEvaluatorMatchesInterpreter: it looks every
// column up by name on every row and materialises row by row. Two
// defects are fixed here as they are in the plan, so the two can be
// compared on them: LIMIT 0 returned the first matching row, and x % y
// panicked when y truncated to zero.

// env resolves column names to values for one row.
type oracleEnv struct {
	cols map[string]int // lower-cased column name → index
	row  []Value
}

func (e *oracleEnv) lookup(name string) (Value, error) {
	idx, ok := e.cols[strings.ToLower(name)]
	if !ok {
		return Value{}, fmt.Errorf("%w: %q", ErrColumn, name)
	}
	return e.row[idx], nil
}

// eval evaluates an expression against a row environment. SQL NULL
// propagates through arithmetic and comparisons; AND/OR use three-valued
// logic collapsed to Truthy at the WHERE boundary.
func oracleEval(e Expr, ev *oracleEnv) (Value, error) {
	switch x := e.(type) {
	case *LiteralExpr:
		return x.Val, nil
	case *ColumnExpr:
		return ev.lookup(x.Name)
	case *UnaryExpr:
		v, err := oracleEval(x.X, ev)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return Null(), nil
			}
			return Bool(!v.Truthy()), nil
		case "-":
			f, err := v.AsNumber()
			if err != nil {
				return Value{}, err
			}
			return Number(-f), nil
		default:
			return Value{}, fmt.Errorf("%w: unary %q", ErrSyntax, x.Op)
		}
	case *BinaryExpr:
		return oracleEvalBinary(x, ev)
	case *InExpr:
		v, err := oracleEval(x.X, ev)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			return Null(), nil
		}
		for _, item := range x.List {
			iv, err := oracleEval(item, ev)
			if err != nil {
				return Value{}, err
			}
			eq := v.Equal(iv)
			if eq.Kind == KindBool && eq.B {
				return Bool(!x.Not), nil
			}
		}
		return Bool(x.Not), nil
	case *IsNullExpr:
		v, err := oracleEval(x.X, ev)
		if err != nil {
			return Value{}, err
		}
		if x.Not {
			return Bool(!v.IsNull()), nil
		}
		return Bool(v.IsNull()), nil
	case *BetweenExpr:
		v, err := oracleEval(x.X, ev)
		if err != nil {
			return Value{}, err
		}
		lo, err := oracleEval(x.Lo, ev)
		if err != nil {
			return Value{}, err
		}
		hi, err := oracleEval(x.Hi, ev)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null(), nil
		}
		cmpLo, err := v.Compare(lo)
		if err != nil {
			return Value{}, err
		}
		cmpHi, err := v.Compare(hi)
		if err != nil {
			return Value{}, err
		}
		in := cmpLo >= 0 && cmpHi <= 0
		if x.Not {
			in = !in
		}
		return Bool(in), nil
	default:
		return Value{}, fmt.Errorf("%w: unknown expression %T", ErrSyntax, e)
	}
}

func oracleEvalBinary(x *BinaryExpr, ev *oracleEnv) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := oracleEval(x.L, ev)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNull() && !l.Truthy() {
			return Bool(false), nil // short circuit
		}
		r, err := oracleEval(x.R, ev)
		if err != nil {
			return Value{}, err
		}
		if !r.IsNull() && !r.Truthy() {
			return Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(true), nil
	case "OR":
		l, err := oracleEval(x.L, ev)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNull() && l.Truthy() {
			return Bool(true), nil // short circuit
		}
		r, err := oracleEval(x.R, ev)
		if err != nil {
			return Value{}, err
		}
		if !r.IsNull() && r.Truthy() {
			return Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(false), nil
	}

	l, err := oracleEval(x.L, ev)
	if err != nil {
		return Value{}, err
	}
	r, err := oracleEval(x.R, ev)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		a, err := l.AsNumber()
		if err != nil {
			return Value{}, err
		}
		b, err := r.AsNumber()
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "+":
			return Number(a + b), nil
		case "-":
			return Number(a - b), nil
		case "*":
			return Number(a * b), nil
		case "/":
			if b == 0 {
				return Null(), nil // SQLite yields NULL on division by zero
			}
			return Number(a / b), nil
		default: // "%"
			if int64(b) == 0 {
				return Null(), nil
			}
			return Number(float64(int64(a) % int64(b))), nil
		}
	case "=":
		return l.Equal(r), nil
	case "!=":
		eq := l.Equal(r)
		if eq.IsNull() {
			return Null(), nil
		}
		return Bool(!eq.B), nil
	case "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c, err := l.Compare(r)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		if r.Kind != KindText {
			return Value{}, fmt.Errorf("%w: LIKE pattern must be text", ErrType)
		}
		re, err := compileLike(r.Str)
		if err != nil {
			return Value{}, err
		}
		return Bool(re.MatchString(l.String())), nil
	default:
		return Value{}, fmt.Errorf("%w: operator %q", ErrSyntax, x.Op)
	}
}

// oracleSelect is the old DB.execSelect.
func oracleSelect(db *DB, s *SelectStmt) (*Rows, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, s.Table)
	}
	names := make([]string, len(t.cols))
	cols := make(map[string]int, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.name
		cols[strings.ToLower(c.name)] = i
	}
	var columns []string
	for _, item := range s.Items {
		if item.Star {
			columns = append(columns, names...)
			continue
		}
		switch {
		case item.Alias != "":
			columns = append(columns, item.Alias)
		default:
			if col, ok := item.Expr.(*ColumnExpr); ok {
				columns = append(columns, col.Name)
			} else {
				columns = append(columns, fmt.Sprintf("expr%d", len(columns)+1))
			}
		}
	}
	out := &Rows{Columns: columns}
	ev := &oracleEnv{cols: cols}
	for r := 0; r < t.rows; r++ {
		if s.Limit >= 0 && len(out.Rows) >= s.Limit {
			break
		}
		row := make([]Value, len(t.cols))
		t.row(r, row)
		ev.row = row
		if s.Where != nil {
			v, err := oracleEval(s.Where, ev)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Truthy() {
				continue
			}
		}
		var outRow []Value
		for _, item := range s.Items {
			if item.Star {
				outRow = append(outRow, row...)
				continue
			}
			v, err := oracleEval(item.Expr, ev)
			if err != nil {
				return nil, err
			}
			outRow = append(outRow, v)
		}
		out.Rows = append(out.Rows, outRow)
	}
	return out, nil
}
