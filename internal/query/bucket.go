// Package query implements PrivApprox's query model (paper §2.2, §3.1):
// an analyst-signed streaming SQL query whose per-client answer is an
// n-bit histogram bucket vector, executed periodically as a sliding
// window computation. Buckets cover numeric ranges for numeric queries
// and regular-expression matching rules for non-numeric queries.
package query

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"

	"privapprox/internal/minisql"
)

// ErrBucket reports an invalid bucket specification.
var ErrBucket = errors.New("query: invalid bucket")

// Bucket decides whether a query answer value falls into one histogram
// bucket. Numeric buckets receive the value parsed as float64;
// non-numeric buckets receive the raw string.
type Bucket interface {
	// Match reports whether the value belongs to this bucket.
	Match(value string) bool
	// Label returns a human-readable description for result tables.
	Label() string
}

// RangeBucket matches numeric values in the half-open interval [Lo, Hi).
// Use math.Inf for open endpoints, e.g. [10, +Inf) for the paper's
// "10+ miles" taxi bucket.
type RangeBucket struct {
	Lo, Hi float64
}

// Match parses value as a float and tests Lo ≤ v < Hi.
func (b RangeBucket) Match(value string) bool {
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return false
	}
	return v >= b.Lo && v < b.Hi
}

// Label renders the interval.
func (b RangeBucket) Label() string {
	var buf [56]byte // two 24-byte floats at the longest
	return string(b.appendLabel(buf[:0]))
}

// appendLabel appends the label to dst: "[lo,hi)" with the bounds in
// their shortest round-trip form (what %g prints), an infinite end as
// "+inf)" or "(-inf". The signing payload covers buckets through these
// bytes, so they may never change.
func (b RangeBucket) appendLabel(dst []byte) []byte {
	switch {
	case math.IsInf(b.Hi, 1):
		dst = append(dst, '[')
		dst = strconv.AppendFloat(dst, b.Lo, 'g', -1, 64)
		return append(dst, ",+inf)"...)
	case math.IsInf(b.Lo, -1):
		dst = append(dst, "(-inf,"...)
		dst = strconv.AppendFloat(dst, b.Hi, 'g', -1, 64)
		return append(dst, ')')
	default:
		dst = append(dst, '[')
		dst = strconv.AppendFloat(dst, b.Lo, 'g', -1, 64)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, b.Hi, 'g', -1, 64)
		return append(dst, ')')
	}
}

// PatternBucket matches string values against a compiled regular
// expression — the paper's "matching rule" for non-numeric queries.
type PatternBucket struct {
	re    *regexp.Regexp
	label string
}

// NewPatternBucket compiles the pattern.
func NewPatternBucket(pattern string) (*PatternBucket, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBucket, err)
	}
	return &PatternBucket{re: re, label: pattern}, nil
}

// Match runs the regular expression against the raw value.
func (b *PatternBucket) Match(value string) bool { return b.re.MatchString(value) }

// Label returns the source pattern.
func (b *PatternBucket) Label() string { return b.label }

// Buckets is an ordered bucket set defining the answer format A[n].
type Buckets []Bucket

// UniformRanges builds n equal-width numeric buckets covering [lo, hi),
// optionally appending a final [hi, +Inf) overflow bucket.
func UniformRanges(lo, hi float64, n int, overflow bool) (Buckets, error) {
	if n <= 0 || hi <= lo || math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, fmt.Errorf("%w: %d ranges over [%g,%g)", ErrBucket, n, lo, hi)
	}
	width := (hi - lo) / float64(n)
	out := make(Buckets, 0, n+1)
	for i := 0; i < n; i++ {
		out = append(out, RangeBucket{Lo: lo + float64(i)*width, Hi: lo + float64(i+1)*width})
	}
	if overflow {
		out = append(out, RangeBucket{Lo: hi, Hi: math.Inf(1)})
	}
	return out, nil
}

// Index returns the first bucket matching value, or -1 when none match.
// The value is parsed once, not once per range.
func (bs Buckets) Index(value string) int {
	f, err := strconv.ParseFloat(value, 64)
	return bs.scan(f, err == nil, value)
}

// scan is the first-match search behind Index and IndexValue: a range
// bucket takes the value as a number (numeric says whether it is one,
// by RangeBucket.Match's rule), any other bucket takes it as text.
func (bs Buckets) scan(f float64, numeric bool, text string) int {
	for i, b := range bs {
		if r, ok := b.(RangeBucket); ok {
			if numeric && f >= r.Lo && f < r.Hi {
				return i
			}
		} else if b.Match(text) {
			return i
		}
	}
	return -1
}

// Bucketizer is a bucket set compiled for typed values: the client
// builds one per subscription and asks it every epoch. For every value
// v, IndexValue(v) is exactly Index(v.String()).
type Bucketizer struct {
	buckets Buckets
	// ranges: some bucket is a RangeBucket, so a value is worth reading
	// as a number. others: some bucket is not, so a value is needed as
	// text. sorted: every bucket is a range and
	// Lo₀ ≤ Hi₀ ≤ Lo₁ ≤ Hi₁ ≤ …, so at most one range holds a value and
	// a binary search finds it.
	ranges, others, sorted bool
}

// Compile inspects the bucket set once. The set must not change while
// the Bucketizer is in use.
func (bs Buckets) Compile() Bucketizer {
	z := Bucketizer{buckets: bs, sorted: true}
	prevHi := math.Inf(-1)
	for _, b := range bs {
		r, ok := b.(RangeBucket)
		if !ok {
			z.others, z.sorted = true, false
			continue
		}
		z.ranges = true
		// NaN bounds fail both comparisons and fall back to the scan.
		z.sorted = z.sorted && prevHi <= r.Lo && r.Lo <= r.Hi
		prevHi = r.Hi
	}
	return z
}

// IndexValue returns the first bucket matching v, or -1 when none
// match. A number is compared against range bounds as it is — its text
// form round-trips through ParseFloat, so the answer is the one Index
// gives for the text — and text reaches pattern buckets uncopied.
func (z *Bucketizer) IndexValue(v minisql.Value) int {
	var f float64
	numeric := false
	if z.ranges {
		switch v.Kind {
		case minisql.KindNumber:
			f, numeric = v.Num, true
		case minisql.KindText:
			parsed, err := strconv.ParseFloat(v.Str, 64)
			f, numeric = parsed, err == nil
		}
	}
	if z.sorted {
		if !numeric {
			return -1
		}
		// The last range starting at or below f is the only candidate.
		lo, hi := 0, len(z.buckets)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if z.buckets[mid].(RangeBucket).Lo <= f {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 && f < z.buckets[lo-1].(RangeBucket).Hi {
			return lo - 1
		}
		return -1
	}
	text := v.Str
	if z.others && v.Kind != minisql.KindText {
		text = v.String()
	}
	return z.buckets.scan(f, numeric, text)
}

// Labels returns the per-bucket labels in order.
func (bs Buckets) Labels() []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Label()
	}
	return out
}
