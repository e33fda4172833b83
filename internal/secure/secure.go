// Package secure provides per-connection payload encryption for the RPC
// stack. Every RPC in the studied fleet is encrypted in transit; the paper
// counts encryption inside the "RPC Processing and Network Stack" latency
// component and inside the cycle tax. This implementation uses AES-GCM
// with a per-connection session key established by the transport
// handshake.
package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// KeySize is the AES-256 key size in bytes.
const KeySize = 32

// Overhead is the per-message ciphertext expansion: nonce + GCM tag.
const Overhead = 12 + 16

// ErrDecrypt reports an authentication failure or malformed ciphertext.
var ErrDecrypt = errors.New("secure: message authentication failed")

// Stats counts encryption work for cycle attribution.
type Stats struct {
	Seals          atomic.Uint64
	Opens          atomic.Uint64
	BytesEncrypted atomic.Uint64
}

// Session encrypts and decrypts messages under one session key. Each
// message uses a fresh counter-derived nonce; a Session must only be used
// by one direction of one connection.
//
// Concurrency contract: the Open* methods are safe for concurrent use —
// the nonce travels inside the message and the GCM AEAD itself is
// stateless — but the Seal* methods on the Session share one nonce
// scratch buffer and must be serialized (the transport holds its
// per-direction lock across them). To seal from several goroutines at
// once, give each its own Worker (NewWorker): workers draw unique nonces
// from the session's shared counter, so concurrent and out-of-order
// sealing stays safe.
type Session struct {
	aead  cipher.AEAD
	ctr   atomic.Uint64
	stats *Stats
	// nonce is scratch for SealAppend: a stack-local nonce escapes through
	// the cipher.AEAD interface call and would cost one heap allocation
	// per message.
	nonce [12]byte
}

// Worker is per-goroutine sealing state for a Session: it carries its own
// nonce scratch while drawing nonce values from the session's shared
// counter, so any number of workers may seal concurrently — each message
// still gets a unique nonce, and the peer recovers it from the message
// prefix regardless of arrival order. A Worker itself is not safe for
// concurrent use; give each sealing goroutine its own.
// Kept only for bench/replay.go, until ROADMAP item 3 moves it off Worker.
type Worker struct {
	s     *Session
	nonce [12]byte
}

// NewWorker returns sealing state for one concurrent goroutine.
func (s *Session) NewWorker() *Worker {
	return &Worker{s: s}
}

// SealAppendAAD is Session.SealAppendAAD using this worker's private
// nonce scratch; see that method for the format and aliasing rules.
func (w *Worker) SealAppendAAD(dst, plaintext, aad []byte) []byte {
	s := w.s
	s.stats.Seals.Add(1)
	s.stats.BytesEncrypted.Add(uint64(len(plaintext)))
	binary.BigEndian.PutUint64(w.nonce[4:], s.ctr.Add(1))
	dst = append(dst, w.nonce[:]...)
	return s.aead.Seal(dst, w.nonce[:], plaintext, aad)
}

// NewSessionKey returns a fresh random session key.
func NewSessionKey() ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("secure: generating key: %w", err)
	}
	return key, nil
}

// DeriveKey derives a session key deterministically from a shared secret
// and a direction label. The loopback transport uses this in place of a
// full key exchange: both ends know the secret out of band.
func DeriveKey(secret []byte, direction string) []byte {
	h := sha256.New()
	h.Write(secret)
	h.Write([]byte{0})
	h.Write([]byte(direction))
	return h.Sum(nil)
}

// NewSession returns a session using the given 32-byte key. stats may be
// nil.
func NewSession(key []byte, stats *Stats) (*Session, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("secure: key must be %d bytes, got %d", KeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("secure: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("secure: %w", err)
	}
	if stats == nil {
		stats = &Stats{}
	}
	return &Session{aead: aead, stats: stats}, nil
}

// Stats returns the shared counters.
func (s *Session) Stats() *Stats { return s.stats }

// Seal encrypts plaintext, producing nonce||ciphertext||tag in a fresh
// buffer. The data plane uses SealAppend with a pooled buffer instead.
func (s *Session) Seal(plaintext []byte) []byte {
	return s.SealAppend(make([]byte, 0, len(plaintext)+Overhead), plaintext)
}

// SealAppend encrypts plaintext and appends nonce||ciphertext||tag to dst,
// returning the extended slice. When dst has capacity for
// len(plaintext)+Overhead more bytes, SealAppend does not allocate. dst
// must not overlap plaintext.
func (s *Session) SealAppend(dst, plaintext []byte) []byte {
	return s.SealAppendAAD(dst, plaintext, nil)
}

// SealAppendAAD is SealAppend with additional authenticated data: aad is
// bound into the GCM tag without being encrypted, so clear-text framing
// bytes (the bulk lane's chunk flags) travel outside the ciphertext yet
// cannot be tampered with. The peer must pass the identical aad to
// OpenAppendAAD. This is the stack's iovec-style seal: the plaintext
// segment is ciphered straight from the caller's buffer into dst in one
// pass, with the out-of-band segment authenticated rather than copied.
func (s *Session) SealAppendAAD(dst, plaintext, aad []byte) []byte {
	s.stats.Seals.Add(1)
	s.stats.BytesEncrypted.Add(uint64(len(plaintext)))
	binary.BigEndian.PutUint64(s.nonce[4:], s.ctr.Add(1))
	dst = append(dst, s.nonce[:]...)
	return s.aead.Seal(dst, s.nonce[:], plaintext, aad)
}

// Open decrypts a message produced by Seal into a fresh buffer. The data
// plane uses OpenAppend with a pooled buffer instead.
func (s *Session) Open(msg []byte) ([]byte, error) {
	return s.OpenAppend(nil, msg)
}

// OpenAppend decrypts a message produced by Seal, appending the plaintext
// to dst and returning the extended slice. When dst has capacity for
// len(msg)-Overhead more bytes, OpenAppend does not allocate. dst must
// not overlap msg.
func (s *Session) OpenAppend(dst, msg []byte) ([]byte, error) {
	return s.OpenAppendAAD(dst, msg, nil)
}

// OpenAppendAAD decrypts a message produced by SealAppendAAD, verifying
// that aad matches the additional data bound at seal time. A mismatch —
// like any tampering — yields ErrDecrypt.
func (s *Session) OpenAppendAAD(dst, msg, aad []byte) ([]byte, error) {
	s.stats.Opens.Add(1)
	if len(msg) < Overhead {
		return nil, ErrDecrypt
	}
	nonce, ciphertext := msg[:12], msg[12:]
	out, err := s.aead.Open(dst, nonce, ciphertext, aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return out, nil
}
