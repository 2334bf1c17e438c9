// Package cryptobench implements the three public-key cryptosystems the
// paper benchmarks XOR-based encryption against in Table 2: RSA (via the
// standard library), and Goldwasser–Micali and Paillier built from
// scratch on math/big. They exist to reproduce the crypto-overhead
// comparison, and the homomorphic properties are implemented and tested
// because prior systems ([27] and [66] in the paper) rely on them.
package cryptobench

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Errors reported by the cryptosystems.
var (
	errKeySize    = errors.New("cryptobench: invalid key size")
	errCiphertext = errors.New("cryptobench: invalid ciphertext")
	errMessage    = errors.New("cryptobench: invalid message")
)

var (
	bigOne  = big.NewInt(1)
	bigTwo  = big.NewInt(2)
	bigFour = big.NewInt(4)
)

// GMPublicKey is a Goldwasser–Micali public key: the modulus N and a
// quadratic non-residue x with Jacobi symbol +1.
type GMPublicKey struct {
	N *big.Int
	X *big.Int
}

// GMPrivateKey adds the factorization, which decides quadratic
// residuosity.
type GMPrivateKey struct {
	GMPublicKey
	P *big.Int
	Q *big.Int
}

// GenerateGMKey creates a Goldwasser–Micali key pair with an n-bit
// modulus built from two Blum primes (p ≡ q ≡ 3 mod 4), for which
// x = N−1 is a quadratic non-residue with Jacobi symbol +1.
func GenerateGMKey(bits int, rng io.Reader) (*GMPrivateKey, error) {
	if bits < 16 {
		return nil, fmt.Errorf("%w: %d bits", errKeySize, bits)
	}
	if rng == nil {
		rng = rand.Reader
	}
	p, err := blumPrime(bits/2, rng)
	if err != nil {
		return nil, err
	}
	var q *big.Int
	for {
		q, err = blumPrime(bits-bits/2, rng)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) != 0 {
			break
		}
	}
	n := new(big.Int).Mul(p, q)
	x := new(big.Int).Sub(n, bigOne) // −1 mod N: QNR for Blum primes
	return &GMPrivateKey{
		GMPublicKey: GMPublicKey{N: n, X: x},
		P:           p,
		Q:           q,
	}, nil
}

// blumPrime returns a prime ≡ 3 (mod 4).
func blumPrime(bits int, rng io.Reader) (*big.Int, error) {
	for {
		p, err := rand.Prime(rng, bits)
		if err != nil {
			return nil, fmt.Errorf("cryptobench: prime generation: %w", err)
		}
		if new(big.Int).Mod(p, bigFour).Cmp(big.NewInt(3)) == 0 {
			return p, nil
		}
	}
}

// encryptBit encrypts one bit: c = y²·x^b mod N for random y coprime
// to N.
func (pub *GMPublicKey) encryptBit(bit bool, rng io.Reader) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	y, err := randomCoprime(pub.N, rng)
	if err != nil {
		return nil, err
	}
	c := new(big.Int).Mul(y, y)
	c.Mod(c, pub.N)
	if bit {
		c.Mul(c, pub.X)
		c.Mod(c, pub.N)
	}
	return c, nil
}

// decryptBit recovers the bit: 0 iff c is a quadratic residue mod P,
// decided by the Legendre symbol c^((P−1)/2) mod P.
func (priv *GMPrivateKey) decryptBit(c *big.Int) (bool, error) {
	if c == nil || c.Sign() <= 0 || c.Cmp(priv.N) >= 0 {
		return false, errCiphertext
	}
	exp := new(big.Int).Sub(priv.P, bigOne)
	exp.Div(exp, bigTwo)
	leg := new(big.Int).Exp(c, exp, priv.P)
	return leg.Cmp(bigOne) != 0, nil
}

// EncryptBits encrypts a packed bit string of nbits bits, producing one
// ciphertext per bit — the cost structure Table 2 measures.
func (pub *GMPublicKey) EncryptBits(bits []byte, nbits int, rng io.Reader) ([]*big.Int, error) {
	if nbits <= 0 || (nbits+7)/8 > len(bits) {
		return nil, fmt.Errorf("%w: %d bits in %d bytes", errMessage, nbits, len(bits))
	}
	out := make([]*big.Int, nbits)
	for i := 0; i < nbits; i++ {
		b := bits[i/8]&(1<<(i%8)) != 0
		c, err := pub.encryptBit(b, rng)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// DecryptBits reverses EncryptBits into a packed bit string.
func (priv *GMPrivateKey) DecryptBits(cs []*big.Int) ([]byte, error) {
	out := make([]byte, (len(cs)+7)/8)
	for i, c := range cs {
		b, err := priv.decryptBit(c)
		if err != nil {
			return nil, err
		}
		if b {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out, nil
}

// homomorphicXOR multiplies two ciphertexts, yielding an encryption of
// the XOR of the plaintext bits — the property [27] builds aggregation
// on.
func (pub *GMPublicKey) homomorphicXOR(c1, c2 *big.Int) *big.Int {
	out := new(big.Int).Mul(c1, c2)
	return out.Mod(out, pub.N)
}

// randomCoprime draws a uniform element of (Z/NZ)* in [2, N).
func randomCoprime(n *big.Int, rng io.Reader) (*big.Int, error) {
	gcd := new(big.Int)
	for {
		y, err := rand.Int(rng, n)
		if err != nil {
			return nil, fmt.Errorf("cryptobench: random element: %w", err)
		}
		if y.Cmp(bigTwo) < 0 {
			continue
		}
		if gcd.GCD(nil, nil, y, n).Cmp(bigOne) == 0 {
			return y, nil
		}
	}
}
