package query

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"
)

// Errors reported by query validation and signature checking.
var (
	ErrInvalidQuery = errors.New("query: invalid query")
	ErrBadSignature = errors.New("query: signature verification failed")
)

// ID identifies a query: the analyst identifier concatenated with a
// serial number unique to that analyst (paper §3.1).
type ID struct {
	Analyst string
	Serial  uint64
}

// String renders the identifier as analyst:serial.
func (id ID) String() string { return fmt.Sprintf("%s:%d", id.Analyst, id.Serial) }

// Uint64 derives the compact on-the-wire query identifier carried inside
// answer messages: FNV-1a over the textual form String returns, hashed
// piece by piece so that it allocates nothing — result sorting calls it
// on every comparison.
func (id ID) Uint64() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id.Analyst); i++ {
		h = (h ^ uint64(id.Analyst[i])) * prime64
	}
	h = (h ^ ':') * prime64
	var buf [20]byte
	for _, c := range strconv.AppendUint(buf[:0], id.Serial, 10) {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// Query is the paper's Eq. 1 tuple ⟨QID, SQL, A[n], f, w, δ⟩: the SQL
// text executed at each client, the answer bucket layout, the answer
// frequency, and the sliding window geometry.
type Query struct {
	QID       ID
	SQL       string
	Buckets   Buckets       // A[n]: one bit per bucket
	Frequency time.Duration // f: how often clients answer
	Window    time.Duration // w: sliding window length
	Slide     time.Duration // δ: sliding interval
	Inverted  bool          // §3.3.2 query inversion flag
}

// Validate checks structural sanity: non-empty SQL, at least one bucket,
// positive timing parameters, and a window no shorter than the slide.
func (q *Query) Validate() error {
	if q.SQL == "" {
		return fmt.Errorf("%w: empty SQL", ErrInvalidQuery)
	}
	if len(q.Buckets) == 0 {
		return fmt.Errorf("%w: no answer buckets", ErrInvalidQuery)
	}
	if q.Frequency <= 0 {
		return fmt.Errorf("%w: frequency %v", ErrInvalidQuery, q.Frequency)
	}
	if q.Window <= 0 || q.Slide <= 0 {
		return fmt.Errorf("%w: window %v slide %v", ErrInvalidQuery, q.Window, q.Slide)
	}
	if q.Slide > q.Window {
		return fmt.Errorf("%w: slide %v exceeds window %v", ErrInvalidQuery, q.Slide, q.Window)
	}
	return nil
}

// Invert returns a copy with the inversion flag toggled (paper §3.3.2):
// the analyst flips a low-utility query into its complement, counting
// truthful "No" answers instead.
func (q *Query) Invert() *Query {
	out := *q
	out.Inverted = !q.Inverted
	return &out
}

// EpochOf maps an event time to the query's epoch number: epochs advance
// every Frequency starting from the epochStart origin.
func (q *Query) EpochOf(origin, at time.Time) uint64 {
	if at.Before(origin) {
		return 0
	}
	return uint64(at.Sub(origin) / q.Frequency)
}

// signingPayload serializes the fields covered by the analyst signature.
// Buckets are covered through their labels; timing is in nanoseconds.
func (q *Query) signingPayload() []byte {
	buf := make([]byte, 0, 64+len(q.QID.Analyst)+len(q.SQL)+48*len(q.Buckets))
	appendString := func(s string) {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(s)))
		buf = append(buf, l[:]...)
		buf = append(buf, s...)
	}
	appendString(q.QID.Analyst)
	var serial [8]byte
	binary.BigEndian.PutUint64(serial[:], q.QID.Serial)
	buf = append(buf, serial[:]...)
	appendString(q.SQL)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(q.Buckets)))
	buf = append(buf, n[:]...)
	for _, b := range q.Buckets {
		r, ok := b.(RangeBucket)
		if !ok {
			appendString(b.Label())
			continue
		}
		// A range renders straight into the payload, its length filled
		// in behind it.
		at := len(buf)
		buf = r.appendLabel(append(buf, 0, 0, 0, 0))
		binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	var timing [24]byte
	binary.BigEndian.PutUint64(timing[0:8], uint64(q.Frequency))
	binary.BigEndian.PutUint64(timing[8:16], uint64(q.Window))
	binary.BigEndian.PutUint64(timing[16:24], uint64(q.Slide))
	buf = append(buf, timing[:]...)
	if q.Inverted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// Signed is a query plus the analyst's ed25519 signature, giving the
// paper's non-repudiation property: clients verify the query really came
// from the claimed analyst before answering.
type Signed struct {
	Query     *Query
	Signature []byte
}

// Sign validates and signs the query with the analyst's private key.
func Sign(q *Query, key ed25519.PrivateKey) (*Signed, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(key) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("%w: bad private key size %d", ErrInvalidQuery, len(key))
	}
	return &Signed{Query: q, Signature: ed25519.Sign(key, q.signingPayload())}, nil
}

// Verify checks the signature against the analyst's public key.
func (s *Signed) Verify(pub ed25519.PublicKey) error {
	return checkSignature(s.Query, s.Signature, pub)
}

func checkSignature(q *Query, sig []byte, pub ed25519.PublicKey) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad public key size %d", ErrBadSignature, len(pub))
	}
	if !ed25519.Verify(pub, q.signingPayload(), sig) {
		return ErrBadSignature
	}
	return nil
}

// Verified is a query whose analyst signature has been checked — the
// form a process verifies once and hands to every client it hosts.
// Only Verify makes one. It holds its own copy of the query, taken
// before the check: changing the *Signed afterwards (its SQL, its
// buckets) changes nothing a holder of the Verified sees. The zero value
// holds no query.
type Verified struct{ q *Query }

// Verify checks signed against the analyst's public key and returns the
// verified query.
func Verify(signed *Signed, pub ed25519.PublicKey) (Verified, error) {
	if signed == nil || signed.Query == nil {
		return Verified{}, fmt.Errorf("%w: nil query", ErrInvalidQuery)
	}
	q := *signed.Query
	q.Buckets = slices.Clone(q.Buckets)
	if err := checkSignature(&q, signed.Signature, pub); err != nil {
		return Verified{}, err
	}
	return Verified{q: &q}, nil
}

// Query returns the verified query, nil for the zero Verified. Every
// holder shares it: read it, never write it.
func (v Verified) Query() *Query { return v.q }
