package cryptobench

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
)

// PaillierPublicKey holds the modulus N and its square; g is fixed to
// N+1, the standard efficient choice.
type PaillierPublicKey struct {
	N  *big.Int
	N2 *big.Int
}

// PaillierPrivateKey adds λ = lcm(p−1, q−1) and the precomputed
// μ = (L(g^λ mod N²))⁻¹ mod N.
type PaillierPrivateKey struct {
	PaillierPublicKey
	Lambda *big.Int
	Mu     *big.Int
}

// GeneratePaillierKey creates a Paillier key pair with an n-bit modulus.
func GeneratePaillierKey(bits int, rng io.Reader) (*PaillierPrivateKey, error) {
	if bits < 16 {
		return nil, fmt.Errorf("%w: %d bits", errKeySize, bits)
	}
	if rng == nil {
		rng = rand.Reader
	}
	var p, q *big.Int
	var err error
	for {
		p, err = rand.Prime(rng, bits/2)
		if err != nil {
			return nil, fmt.Errorf("cryptobench: prime generation: %w", err)
		}
		q, err = rand.Prime(rng, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("cryptobench: prime generation: %w", err)
		}
		if p.Cmp(q) != 0 {
			break
		}
	}
	n := new(big.Int).Mul(p, q)
	n2 := new(big.Int).Mul(n, n)
	pm1 := new(big.Int).Sub(p, bigOne)
	qm1 := new(big.Int).Sub(q, bigOne)
	gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, gcd)

	priv := &PaillierPrivateKey{
		PaillierPublicKey: PaillierPublicKey{N: n, N2: n2},
		Lambda:            lambda,
	}
	// μ = (L((N+1)^λ mod N²))⁻¹ mod N.
	g := new(big.Int).Add(n, bigOne)
	u := new(big.Int).Exp(g, lambda, n2)
	l := priv.lFunc(u)
	mu := new(big.Int).ModInverse(l, n)
	if mu == nil {
		return nil, fmt.Errorf("cryptobench: degenerate paillier key")
	}
	priv.Mu = mu
	return priv, nil
}

// lFunc is L(u) = (u − 1) / N.
func (priv *PaillierPrivateKey) lFunc(u *big.Int) *big.Int {
	l := new(big.Int).Sub(u, bigOne)
	return l.Div(l, priv.N)
}

// Encrypt encrypts m ∈ [0, N): c = (N+1)^m · r^N mod N². Using g = N+1
// reduces g^m to (1 + m·N) mod N².
func (pub *PaillierPublicKey) Encrypt(m *big.Int, rng io.Reader) (*big.Int, error) {
	if m == nil || m.Sign() < 0 || m.Cmp(pub.N) >= 0 {
		return nil, errMessage
	}
	if rng == nil {
		rng = rand.Reader
	}
	r, err := randomCoprime(pub.N, rng)
	if err != nil {
		return nil, err
	}
	// g^m = 1 + mN mod N².
	gm := new(big.Int).Mul(m, pub.N)
	gm.Add(gm, bigOne)
	gm.Mod(gm, pub.N2)
	rn := new(big.Int).Exp(r, pub.N, pub.N2)
	c := gm.Mul(gm, rn)
	return c.Mod(c, pub.N2), nil
}

// Decrypt recovers m = L(c^λ mod N²) · μ mod N.
func (priv *PaillierPrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	if c == nil || c.Sign() <= 0 || c.Cmp(priv.N2) >= 0 {
		return nil, errCiphertext
	}
	u := new(big.Int).Exp(c, priv.Lambda, priv.N2)
	m := priv.lFunc(u)
	m.Mul(m, priv.Mu)
	return m.Mod(m, priv.N), nil
}

// homomorphicAdd multiplies ciphertexts, yielding an encryption of the
// plaintext sum — the aggregation primitive of [66] in the paper.
func (pub *PaillierPublicKey) homomorphicAdd(c1, c2 *big.Int) *big.Int {
	out := new(big.Int).Mul(c1, c2)
	return out.Mod(out, pub.N2)
}
