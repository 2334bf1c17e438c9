package cryptobench

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"io"
)

// RSACipher wraps the standard library RSA with the paper's Table 2
// setup: a 1024-bit key encrypting short answer messages with PKCS#1
// v1.5 padding (the scheme used by [10] in the paper).
type RSACipher struct {
	key *rsa.PrivateKey
}

// NewRSACipher generates a fresh key of the given modulus size.
func NewRSACipher(bits int, rng io.Reader) (*RSACipher, error) {
	if bits < 512 {
		return nil, fmt.Errorf("%w: %d bits", errKeySize, bits)
	}
	if rng == nil {
		rng = rand.Reader
	}
	key, err := rsa.GenerateKey(rng, bits)
	if err != nil {
		return nil, fmt.Errorf("cryptobench: rsa keygen: %w", err)
	}
	return &RSACipher{key: key}, nil
}

// Encrypt encrypts msg under the public key.
func (c *RSACipher) Encrypt(msg []byte) ([]byte, error) {
	out, err := rsa.EncryptPKCS1v15(rand.Reader, &c.key.PublicKey, msg)
	if err != nil {
		return nil, fmt.Errorf("cryptobench: rsa encrypt: %w", err)
	}
	return out, nil
}

// Decrypt reverses Encrypt.
func (c *RSACipher) Decrypt(ct []byte) ([]byte, error) {
	out, err := rsa.DecryptPKCS1v15(rand.Reader, c.key, ct)
	if err != nil {
		return nil, fmt.Errorf("cryptobench: rsa decrypt: %w", err)
	}
	return out, nil
}

// maxMessageLen returns the largest message PKCS#1 v1.5 can carry.
func (c *RSACipher) maxMessageLen() int {
	return c.key.PublicKey.Size() - 11
}
