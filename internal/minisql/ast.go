package minisql

// Expr is an expression node evaluated per row.
type Expr interface {
	exprNode()
}

// literalExpr is a constant.
type literalExpr struct{ Val Value }

// columnExpr references a column by name.
type columnExpr struct{ Name string }

// unaryExpr is NOT x or -x.
type unaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// binaryExpr covers arithmetic, comparisons, AND/OR, and LIKE.
type binaryExpr struct {
	Op   string // "+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=", "AND", "OR", "LIKE"
	L, R Expr
}

// inExpr is x IN (e1, e2, ...), optionally negated.
type inExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// isNullExpr is x IS [NOT] NULL.
type isNullExpr struct {
	X   Expr
	Not bool
}

// betweenExpr is x BETWEEN lo AND hi, optionally negated.
type betweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (*literalExpr) exprNode() {}
func (*columnExpr) exprNode()  {}
func (*unaryExpr) exprNode()   {}
func (*binaryExpr) exprNode()  {}
func (*inExpr) exprNode()      {}
func (*isNullExpr) exprNode()  {}
func (*betweenExpr) exprNode() {}

// Statement is a parsed SQL statement; Parse returns only *SelectStmt.
type Statement interface {
	stmtNode()
}

// SelectItem is one projection: an expression with an optional alias, or
// the star.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// SelectStmt is SELECT items FROM table [WHERE cond] [LIMIT n].
type SelectStmt struct {
	Items []SelectItem
	Table string
	Where Expr // nil when absent
	Limit int  // -1 when absent
}

func (*SelectStmt) stmtNode() {}
