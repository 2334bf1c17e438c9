package minisql

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
)

// ErrColumn reports a reference to an unknown column.
var ErrColumn = errors.New("minisql: unknown column")

// opcode names what a bound expression node computes.
type opcode uint8

const (
	opLiteral opcode = iota
	opColumn
	opNot
	opNeg
	opAnd
	opOr
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opLike
	opIn
	opIsNull
	opBetween
)

var binaryOps = map[string]opcode{
	"AND": opAnd, "OR": opOr,
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"=": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
	"LIKE": opLike,
}

// node is one expression node bound to a table: column names are
// resolved to column indexes and operands are indexes into the same node
// slice, so a whole statement binds into one allocation.
type node struct {
	op      opcode
	not     bool           // opIn, opIsNull, opBetween: the negated form
	a, b, c int32          // operands; opColumn: a is the column index; opIn: the list is nodes[b:c]
	val     Value          // opLiteral
	like    *regexp.Regexp // opLike whose pattern is a text literal, compiled at bind
}

// exprSize is the number of nodes e binds into.
func exprSize(e Expr) int {
	switch x := e.(type) {
	case *UnaryExpr:
		return 1 + exprSize(x.X)
	case *BinaryExpr:
		return 1 + exprSize(x.L) + exprSize(x.R)
	case *InExpr:
		n := 1 + exprSize(x.X)
		for _, item := range x.List {
			n += exprSize(item)
		}
		return n
	case *IsNullExpr:
		return 1 + exprSize(x.X)
	case *BetweenExpr:
		return 1 + exprSize(x.X) + exprSize(x.Lo) + exprSize(x.Hi)
	default:
		return 1
	}
}

// binder resolves expressions against one table's columns.
type binder struct {
	nodes []node
	cols  []column // the table's columns; nil binds constants only
}

// reserve appends n empty nodes and returns the index of the first.
func (b *binder) reserve(n int) int32 {
	first := len(b.nodes)
	b.nodes = append(b.nodes, make([]node, n)...)
	return int32(first)
}

// bind writes e into nodes[slot], its operands into newly reserved
// nodes. Unknown columns and operators, and a literal LIKE pattern that
// does not compile, fail here rather than at the first evaluated row.
func (b *binder) bind(slot int32, e Expr) error {
	switch x := e.(type) {
	case *LiteralExpr:
		b.nodes[slot] = node{op: opLiteral, val: x.Val}
		return nil
	case *ColumnExpr:
		idx := lookup(b.cols, strings.ToLower(x.Name))
		if idx < 0 {
			return fmt.Errorf("%w: %q", ErrColumn, x.Name)
		}
		b.nodes[slot] = node{op: opColumn, a: int32(idx)}
		return nil
	case *UnaryExpr:
		var op opcode
		switch x.Op {
		case "NOT":
			op = opNot
		case "-":
			op = opNeg
		default:
			return fmt.Errorf("%w: unary %q", ErrSyntax, x.Op)
		}
		a := b.reserve(1)
		b.nodes[slot] = node{op: op, a: a}
		return b.bind(a, x.X)
	case *BinaryExpr:
		op, ok := binaryOps[x.Op]
		if !ok {
			return fmt.Errorf("%w: operator %q", ErrSyntax, x.Op)
		}
		l := b.reserve(2)
		n := node{op: op, a: l, b: l + 1}
		if lit, ok := x.R.(*LiteralExpr); ok && op == opLike && lit.Val.Kind == KindText {
			re, err := compileLike(lit.Val.Str)
			if err != nil {
				return err
			}
			n.like = re
		}
		b.nodes[slot] = n
		if err := b.bind(n.a, x.L); err != nil {
			return err
		}
		return b.bind(n.b, x.R)
	case *InExpr:
		first := b.reserve(1 + len(x.List))
		b.nodes[slot] = node{op: opIn, not: x.Not, a: first, b: first + 1, c: first + 1 + int32(len(x.List))}
		if err := b.bind(first, x.X); err != nil {
			return err
		}
		for i, item := range x.List {
			if err := b.bind(first+1+int32(i), item); err != nil {
				return err
			}
		}
		return nil
	case *IsNullExpr:
		a := b.reserve(1)
		b.nodes[slot] = node{op: opIsNull, not: x.Not, a: a}
		return b.bind(a, x.X)
	case *BetweenExpr:
		first := b.reserve(3)
		b.nodes[slot] = node{op: opBetween, not: x.Not, a: first, b: first + 1, c: first + 2}
		if err := b.bind(first, x.X); err != nil {
			return err
		}
		if err := b.bind(first+1, x.Lo); err != nil {
			return err
		}
		return b.bind(first+2, x.Hi)
	default:
		return fmt.Errorf("%w: unknown expression %T", ErrSyntax, e)
	}
}

// evalConst evaluates an expression that references no table, such as
// an INSERT value.
func evalConst(e Expr) (Value, error) {
	b := binder{nodes: make([]node, 1, exprSize(e))}
	if err := b.bind(0, e); err != nil {
		return Value{}, err
	}
	return eval(b.nodes, 0, nil, 0)
}

// eval evaluates nodes[i] against the given row of t, reading each cell it
// references from its column. SQL NULL propagates through arithmetic and
// comparisons; AND/OR use three-valued logic collapsed to Truthy at the
// WHERE boundary.
func eval(nodes []node, i int32, t *table, row int) (Value, error) {
	n := &nodes[i]
	switch n.op {
	case opLiteral:
		return n.val, nil
	case opColumn:
		var v Value
		t.cols[n.a].load(row, &v)
		return v, nil
	case opNot:
		v, err := eval(nodes, n.a, t, row)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			return Null(), nil
		}
		return Bool(!v.Truthy()), nil
	case opNeg:
		v, err := eval(nodes, n.a, t, row)
		if err != nil {
			return Value{}, err
		}
		f, err := v.AsNumber()
		if err != nil {
			return Value{}, err
		}
		return Number(-f), nil
	case opAnd, opOr:
		// decided is the operand value that settles the result alone:
		// false for AND, true for OR.
		decided := n.op == opOr
		l, err := eval(nodes, n.a, t, row)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNull() && l.Truthy() == decided {
			return Bool(decided), nil // short circuit
		}
		r, err := eval(nodes, n.b, t, row)
		if err != nil {
			return Value{}, err
		}
		if !r.IsNull() && r.Truthy() == decided {
			return Bool(decided), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(!decided), nil
	case opIn:
		v, err := eval(nodes, n.a, t, row)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			return Null(), nil
		}
		for j := n.b; j < n.c; j++ {
			iv, err := eval(nodes, j, t, row)
			if err != nil {
				return Value{}, err
			}
			if eq := v.Equal(iv); eq.Kind == KindBool && eq.B {
				return Bool(!n.not), nil
			}
		}
		return Bool(n.not), nil
	case opIsNull:
		v, err := eval(nodes, n.a, t, row)
		if err != nil {
			return Value{}, err
		}
		return Bool(v.IsNull() != n.not), nil
	case opBetween:
		v, err := eval(nodes, n.a, t, row)
		if err != nil {
			return Value{}, err
		}
		lo, err := eval(nodes, n.b, t, row)
		if err != nil {
			return Value{}, err
		}
		hi, err := eval(nodes, n.c, t, row)
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
		return Bool((cmpLo >= 0 && cmpHi <= 0) != n.not), nil
	}

	l, err := eval(nodes, n.a, t, row)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(nodes, n.b, t, row)
	if err != nil {
		return Value{}, err
	}
	switch n.op {
	case opEq:
		return l.Equal(r), nil
	case opNe:
		eq := l.Equal(r)
		if eq.IsNull() {
			return Null(), nil
		}
		return Bool(!eq.B), nil
	}
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	switch n.op {
	case opAdd, opSub, opMul, opDiv, opMod:
		a, err := l.AsNumber()
		if err != nil {
			return Value{}, err
		}
		b, err := r.AsNumber()
		if err != nil {
			return Value{}, err
		}
		switch n.op {
		case opAdd:
			return Number(a + b), nil
		case opSub:
			return Number(a - b), nil
		case opMul:
			return Number(a * b), nil
		case opDiv:
			if b == 0 {
				return Null(), nil // SQLite yields NULL on division by zero
			}
			return Number(a / b), nil
		default: // opMod, over the integer parts
			if int64(b) == 0 {
				return Null(), nil
			}
			return Number(float64(int64(a) % int64(b))), nil
		}
	case opLt, opLe, opGt, opGe:
		c, err := l.Compare(r)
		if err != nil {
			return Value{}, err
		}
		switch n.op {
		case opLt:
			return Bool(c < 0), nil
		case opLe:
			return Bool(c <= 0), nil
		case opGt:
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case opLike:
		if r.Kind != KindText {
			return Value{}, fmt.Errorf("%w: LIKE pattern must be text", ErrType)
		}
		re := n.like
		if re == nil {
			// The pattern is computed per row; there is nothing to reuse.
			if re, err = compileLike(r.Str); err != nil {
				return Value{}, err
			}
		}
		return Bool(re.MatchString(l.String())), nil
	default:
		return Value{}, fmt.Errorf("%w: opcode %d", ErrSyntax, n.op)
	}
}

// maxLikePattern bounds what one analyst-supplied pattern costs every
// client to compile and match.
const maxLikePattern = 1024

// compileLike compiles a SQL LIKE pattern (% = any run, _ = any single
// character) into an anchored, case-insensitive regular expression.
func compileLike(pattern string) (*regexp.Regexp, error) {
	if len(pattern) > maxLikePattern {
		return nil, fmt.Errorf("%w: LIKE pattern of %d bytes, limit %d", ErrSyntax, len(pattern), maxLikePattern)
	}
	var sb strings.Builder
	sb.WriteString("(?is)^")
	for _, r := range pattern {
		switch r {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString("$")
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return nil, fmt.Errorf("%w: LIKE pattern %q: %v", ErrSyntax, pattern, err)
	}
	return re, nil
}

// Plan is a SELECT prepared for running every epoch: on its first run it
// binds the statement to the table it meets — output columns, every
// column reference resolved to a column index, literal LIKE patterns
// compiled — and binds again only if a later run meets a different
// table. The statement itself is shared and never written, so one
// parsed statement can back any number of plans; a Plan is not safe for
// concurrent use.
type Plan struct {
	stmt  *SelectStmt
	key   string  // lower-cased table name
	t     *table  // the table the fields below are bound to; nil before the first run
	nodes []node  // nodes[:width] are the output columns, in order
	where int32   // index of the WHERE expression, -1 when absent
	width int32   // output columns
	out   []Value // the row Scan lends to its visitor
}

// NewPlan prepares a parsed SELECT. Binding waits for the first run: the
// table may not exist yet.
func NewPlan(sel *SelectStmt) *Plan {
	return &Plan{stmt: sel, key: strings.ToLower(sel.Table)}
}

// bind points the plan at the table db holds now. The caller holds
// db.mu. A failed bind leaves the plan as it was, so the next run tries
// again.
func (p *Plan) bind(db *DB) error {
	t, ok := db.tables[p.key]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, p.stmt.Table)
	}
	if t == p.t {
		return nil
	}
	width, size := 0, 0
	for _, item := range p.stmt.Items {
		if item.Star {
			width += len(t.cols)
			size += len(t.cols)
		} else {
			width++
			size += exprSize(item.Expr)
		}
	}
	if p.stmt.Where != nil {
		size += exprSize(p.stmt.Where)
	}
	b := binder{nodes: make([]node, width, size), cols: t.cols}
	col := int32(0)
	for _, item := range p.stmt.Items {
		if item.Star {
			for i := range t.cols {
				b.nodes[col] = node{op: opColumn, a: int32(i)}
				col++
			}
			continue
		}
		if err := b.bind(col, item.Expr); err != nil {
			return err
		}
		col++
	}
	where := int32(-1)
	if p.stmt.Where != nil {
		where = b.reserve(1)
		if err := b.bind(where, p.stmt.Where); err != nil {
			return err
		}
	}
	p.t, p.nodes, p.where, p.width = t, b.nodes, where, int32(width)
	return nil
}

// columnNames names the bound plan's output columns: the table's names
// for a star, else the alias, the bare column's name, or exprN by
// position.
func (p *Plan) columnNames() []string {
	names := make([]string, 0, p.width)
	for _, item := range p.stmt.Items {
		switch col, bare := item.Expr.(*ColumnExpr); {
		case item.Star:
			for i := range p.t.cols {
				names = append(names, p.t.cols[i].name)
			}
		case item.Alias != "":
			names = append(names, item.Alias)
		case bare:
			names = append(names, col.Name)
		default:
			names = append(names, fmt.Sprintf("expr%d", len(names)+1))
		}
	}
	return names
}

// scan projects every row that passes WHERE, up to LIMIT, into out and
// lends it to visit. The caller holds db.mu and has bound the plan. The
// evaluator reads the table's cells where they are, so the scan keeps no
// input row: out is its only buffer.
func (p *Plan) scan(out []Value, visit func(row []Value)) error {
	t := p.t
	left := p.stmt.Limit // -1 when absent
	for r := 0; r < t.rows; r++ {
		if left == 0 {
			break
		}
		if p.where >= 0 {
			v, err := eval(p.nodes, p.where, t, r)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				continue
			}
		}
		for i := range out {
			if n := &p.nodes[i]; n.op == opColumn {
				t.cols[n.a].load(r, &out[i]) // the usual projection, without the call
				continue
			}
			v, err := eval(p.nodes, int32(i), t, r)
			if err != nil {
				return err
			}
			out[i] = v
		}
		visit(out)
		left--
	}
	return nil
}

// Scan runs the plan against db and calls visit once per result row, in
// table order, under the database's read lock. The row is borrowed: it
// is valid only during the call and is overwritten by the next one, so a
// visitor keeps values, not the slice. visit must not write to db.
func (p *Plan) Scan(db *DB, visit func(row []Value)) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := p.bind(db); err != nil {
		return err
	}
	if len(p.out) != int(p.width) {
		p.out = make([]Value, p.width)
	}
	return p.scan(p.out, visit)
}

// materialise runs the plan and copies the result rows into one flat
// arena, sized exactly when there is no WHERE to thin them. The arena's
// first row is the one the scan projects into; the result follows it.
func (p *Plan) materialise(db *DB) (*Rows, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := p.bind(db); err != nil {
		return nil, err
	}
	width := int(p.width)
	most := 0
	if p.where < 0 {
		most = p.t.rows
		if limit := p.stmt.Limit; limit >= 0 && limit < most {
			most = limit
		}
	}
	arena := make([]Value, width, (1+most)*width)
	if err := p.scan(arena[:width], func(row []Value) { arena = append(arena, row...) }); err != nil {
		return nil, err
	}
	out := &Rows{Columns: p.columnNames()}
	if n := len(arena)/width - 1; n > 0 {
		out.Rows = make([][]Value, n)
		for i := range out.Rows {
			out.Rows[i] = arena[(i+1)*width : (i+2)*width : (i+2)*width]
		}
	}
	return out, nil
}
