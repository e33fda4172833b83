package secure

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func newTestSession(t *testing.T) *Session {
	t.Helper()
	key, err := NewSessionKey()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSealOpenRoundTrip(t *testing.T) {
	s := newTestSession(t)
	msgs := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("rpc"), 10000)}
	for _, in := range msgs {
		ct := s.Seal(in)
		if len(ct) != len(in)+Overhead {
			t.Errorf("overhead mismatch: %d != %d + %d", len(ct), len(in), Overhead)
		}
		out, err := s.Open(ct)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(out, in) {
			t.Error("round trip mismatch")
		}
	}
}

func TestSealOpenProperty(t *testing.T) {
	s := newTestSession(t)
	f := func(payload []byte) bool {
		out, err := s.Open(s.Seal(payload))
		return err == nil && bytes.Equal(out, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTamperDetected(t *testing.T) {
	s := newTestSession(t)
	ct := s.Seal([]byte("authentic message"))
	for i := 0; i < len(ct); i += 7 {
		bad := append([]byte(nil), ct...)
		bad[i] ^= 0x01
		if _, err := s.Open(bad); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("flip at %d: got %v, want ErrDecrypt", i, err)
		}
	}
}

func TestShortCiphertext(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Open([]byte("short")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("got %v", err)
	}
	if _, err := s.Open(nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("got %v", err)
	}
}

func TestNoncesUnique(t *testing.T) {
	s := newTestSession(t)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		ct := s.Seal([]byte("same plaintext"))
		nonce := string(ct[:12])
		if seen[nonce] {
			t.Fatal("nonce reuse detected")
		}
		seen[nonce] = true
	}
}

func TestCrossSessionRejected(t *testing.T) {
	a, b := newTestSession(t), newTestSession(t)
	ct := a.Seal([]byte("for a only"))
	if _, err := b.Open(ct); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("cross-session open: %v", err)
	}
}

func TestDeriveKeyDeterministicAndDirectional(t *testing.T) {
	secret := []byte("shared handshake secret")
	k1 := DeriveKey(secret, "client->server")
	k2 := DeriveKey(secret, "client->server")
	k3 := DeriveKey(secret, "server->client")
	if !bytes.Equal(k1, k2) {
		t.Error("derivation not deterministic")
	}
	if bytes.Equal(k1, k3) {
		t.Error("directions must yield different keys")
	}
	if len(k1) != KeySize {
		t.Errorf("derived key size = %d", len(k1))
	}
	// Derived keys are directly usable.
	s, err := NewSession(k1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := s.Open(s.Seal([]byte("ok"))); err != nil || string(out) != "ok" {
		t.Error("derived-key session round trip failed")
	}
}

func TestBadKeySize(t *testing.T) {
	if _, err := NewSession([]byte("short"), nil); err == nil {
		t.Error("short key should be rejected")
	}
}

func TestStatsCounting(t *testing.T) {
	stats := &Stats{}
	key, _ := NewSessionKey()
	s, err := NewSession(key, stats)
	if err != nil {
		t.Fatal(err)
	}
	ct := s.Seal(make([]byte, 100))
	_, _ = s.Open(ct)
	if stats.Seals.Load() != 1 || stats.Opens.Load() != 1 {
		t.Errorf("seals=%d opens=%d", stats.Seals.Load(), stats.Opens.Load())
	}
	if stats.BytesEncrypted.Load() != 100 {
		t.Errorf("bytes = %d", stats.BytesEncrypted.Load())
	}
}

// FuzzOpenMutated: a peer controls every byte Open reads. A message that
// SealAppendAAD produced and that was then altered (a byte flipped, cut
// short, extended, or opened with other AAD) fails with ErrDecrypt,
// returns no plaintext, leaves none in dst's spare capacity, and does not
// panic. op picks the alteration; pos and val place and shape it. The
// seeds in testdata are TestTamperDetected's flips, TestShortCiphertext's
// short messages, an extension and two AAD changes.
func FuzzOpenMutated(f *testing.F) {
	s, err := NewSession(DeriveKey([]byte("fuzz"), "c2s"), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, plaintext, aad []byte, op byte, pos uint16, val byte) {
		msg := s.SealAppendAAD(nil, plaintext, aad)
		if out, err := s.OpenAppendAAD(nil, msg, aad); err != nil || !bytes.Equal(out, plaintext) {
			t.Fatalf("unaltered message: %v", err)
		}
		flip := max(val, 1)
		openAAD := aad
		switch op % 4 {
		case 0:
			msg[int(pos)%len(msg)] ^= flip
		case 1:
			msg = msg[:int(pos)%len(msg)]
		case 2:
			msg = append(msg, bytes.Repeat([]byte{val}, 1+int(pos)%64)...)
		case 3:
			openAAD = append([]byte(nil), aad...)
			if len(aad) == 0 {
				openAAD = []byte{val}
			} else {
				openAAD[int(pos)%len(aad)] ^= flip
			}
		}
		const mark = 0xA5
		dst := bytes.Repeat([]byte{mark}, 8+len(msg))[:8]
		out, err := s.OpenAppendAAD(dst, msg, openAAD)
		if !errors.Is(err, ErrDecrypt) || out != nil {
			t.Fatalf("altered message (op %d): %q, %v; want nil, ErrDecrypt", op%4, out, err)
		}
		for i, b := range dst[:cap(dst)] {
			if b != mark && (i < len(dst) || b != 0) {
				t.Fatalf("dst byte %d is %#x after a failed open", i, b)
			}
		}
	})
}
