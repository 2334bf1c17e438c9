// Package minisql is an embedded SQL-subset engine: the stand-in for the
// SQLite database PrivApprox clients run analyst queries against
// (paper §5, "the query answer module is used to execute the input query
// on the local user's private data stored in SQLite").
//
// Tables are built and filled through the API (DB.CreateTable,
// DB.Insert); the one statement the engine parses is the query shape the
// paper's model needs:
//
//	SELECT expr [AS name], ... FROM t [WHERE predicate] [LIMIT n]
//
// with arithmetic, comparisons, AND/OR/NOT, LIKE, IN, BETWEEN and IS
// NULL in expressions. Values are dynamically typed (null, number, text, bool),
// SQLite style.
package minisql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// errType reports an operation applied to incompatible value types.
var errType = errors.New("minisql: type error")

// Kind enumerates runtime value types.
type Kind int

// The dynamic types a cell can hold.
const (
	kindNull Kind = iota
	KindNumber
	KindText
	kindBool
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case kindNull:
		return "null"
	case KindNumber:
		return "number"
	case KindText:
		return "text"
	case kindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is one dynamically typed cell. Kind says which field carries it:
// Num for a number, Str for text, B for a bool, none for NULL. A table
// stores only that field, so a stored cell reads back canonical — the
// kind and its one payload field, the others zero (a number's stray Str
// is not kept) — and DB.Insert refuses a Kind that is not one of the four.
type Value struct {
	Kind Kind
	Num  float64
	Str  string
	B    bool
}

// Convenience constructors.
func Null() Value            { return Value{Kind: kindNull} }
func Number(f float64) Value { return Value{Kind: KindNumber, Num: f} }
func Text(s string) Value    { return Value{Kind: KindText, Str: s} }
func Bool(b bool) Value      { return Value{Kind: kindBool, B: b} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == kindNull }

// Truthy converts to a boolean in WHERE position: NULL is false, numbers
// are non-zero, text is non-empty.
func (v Value) Truthy() bool {
	switch v.Kind {
	case kindBool:
		return v.B
	case KindNumber:
		return v.Num != 0
	case KindText:
		return v.Str != ""
	default:
		return false
	}
}

// AsNumber coerces to float64: numbers pass through, bools become 0/1,
// numeric-looking text parses.
func (v Value) AsNumber() (float64, error) {
	switch v.Kind {
	case KindNumber:
		return v.Num, nil
	case kindBool:
		if v.B {
			return 1, nil
		}
		return 0, nil
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
		if err != nil {
			return 0, fmt.Errorf("%w: %q is not numeric", errType, v.Str)
		}
		return f, nil
	default:
		return 0, fmt.Errorf("%w: null is not numeric", errType)
	}
}

// String renders the value the way query results print it.
func (v Value) String() string {
	switch v.Kind {
	case kindNull:
		return "NULL"
	case KindNumber:
		var buf [32]byte // the longest float64 in this format has 24 characters
		return string(strconv.AppendFloat(buf[:0], v.Num, 'g', -1, 64))
	case KindText:
		return v.Str
	case kindBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Equal implements SQL equality: NULL equals nothing (including NULL);
// number/bool/text compare after coercion when kinds differ and both
// sides are scalar.
func (v Value) Equal(o Value) Value {
	if v.IsNull() || o.IsNull() {
		return Null()
	}
	if v.Kind == KindText && o.Kind == KindText {
		return Bool(v.Str == o.Str)
	}
	a, errA := v.AsNumber()
	b, errB := o.AsNumber()
	if errA != nil || errB != nil {
		// Mixed text/number that does not coerce: unequal.
		return Bool(false)
	}
	return Bool(a == b)
}

// Compare returns -1/0/+1 ordering, or an error for incomparable kinds.
// NULL comparisons surface as errors so the evaluator can map them to
// SQL NULL.
func (v Value) Compare(o Value) (int, error) {
	if v.IsNull() || o.IsNull() {
		return 0, fmt.Errorf("%w: comparison with NULL", errType)
	}
	if v.Kind == KindText && o.Kind == KindText {
		return strings.Compare(v.Str, o.Str), nil
	}
	a, errA := v.AsNumber()
	if errA != nil {
		return 0, errA
	}
	b, errB := o.AsNumber()
	if errB != nil {
		return 0, errB
	}
	switch {
	case a < b:
		return -1, nil
	case a > b:
		return 1, nil
	default:
		return 0, nil
	}
}
