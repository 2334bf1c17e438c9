package minisql

// Expr is an expression node evaluated per row.
type Expr interface {
	exprNode()
}

// LiteralExpr is a constant.
type LiteralExpr struct{ Val Value }

// ColumnExpr references a column by name.
type ColumnExpr struct{ Name string }

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// BinaryExpr covers arithmetic, comparisons, AND/OR, and LIKE.
type BinaryExpr struct {
	Op   string // "+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=", "AND", "OR", "LIKE"
	L, R Expr
}

// InExpr is x IN (e1, e2, ...), optionally negated.
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// BetweenExpr is x BETWEEN lo AND hi, optionally negated.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (*LiteralExpr) exprNode() {}
func (*ColumnExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*BinaryExpr) exprNode()  {}
func (*InExpr) exprNode()      {}
func (*IsNullExpr) exprNode()  {}
func (*BetweenExpr) exprNode() {}

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
