// Package dissent implements the Dissent anonymizer in the anytrust
// model (Wolinsky et al., the paper's reference [76]): N clients and a
// small set of M servers run DC-net rounds in which every client
// submits a ciphertext and anonymity holds as long as at least one
// server is honest.
//
// This file is the cryptographic core, implemented for real: pairwise
// client-server secrets seed a PRG; a client's ciphertext is the XOR
// of its pads (plus its message, in its own slot), a server's share is
// the XOR of the pads it holds, and XOR-combining everything reveals
// exactly the plaintext slots — unconditionally hiding who sent what.
// It and blame.go are a unit-tested reference: the Client transport
// prices rounds by slot size and server cost and does not call them.
package dissent

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"

	"nymix/internal/anonnet"
	"nymix/internal/nymerr"
)

// Secret is a pairwise client-server shared secret.
type Secret [32]byte

// SharedSecret derives the pairwise secret for a client-server pair.
// Both sides derive the same value regardless of argument order in
// their own call, because the pair is canonicalized. (A deployment
// would run Diffie-Hellman; the simulation derives from identities.)
func SharedSecret(client, server string) Secret {
	mac := hmac.New(sha256.New, []byte("dissent-pairwise-v1"))
	mac.Write([]byte(client))
	mac.Write([]byte{0})
	mac.Write([]byte(server))
	var s Secret
	copy(s[:], mac.Sum(nil))
	return s
}

// prg expands a secret into n pseudo-random pad bytes for a round,
// via SHA-256 in counter mode.
func prg(secret Secret, round uint64, n int) []byte {
	out := make([]byte, 0, n+sha256.Size)
	var ctr uint64
	for len(out) < n {
		h := sha256.New()
		h.Write(secret[:])
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[0:8], round)
		binary.BigEndian.PutUint64(buf[8:16], ctr)
		h.Write(buf[:])
		out = h.Sum(out)
		ctr++
	}
	return out[:n]
}

// xorInto dst ^= src (lengths must match).
func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Schedule assigns each client one slot per round, in a fixed order
// agreed during setup (a real deployment runs a verifiable shuffle;
// the simulation sorts deterministically by the order given).
type Schedule struct {
	Clients []string
	SlotLen int
}

// SlotOf returns the slot index of a client, or -1.
func (s *Schedule) SlotOf(client string) int {
	for i, c := range s.Clients {
		if c == client {
			return i
		}
	}
	return -1
}

// RoundLen returns the total bytes of one round's combined output.
func (s *Schedule) RoundLen() int { return len(s.Clients) * s.SlotLen }

// ClientCiphertext produces a client's DC-net ciphertext for a round:
// the XOR of its pads with every server, with msg XORed into the
// client's own slot. msg longer than the slot is an error.
func ClientCiphertext(sched *Schedule, servers []string, client string, round uint64, msg []byte) ([]byte, error) {
	slot := sched.SlotOf(client)
	if slot < 0 {
		return nil, nymerr.Newf(anonnet.CodeBadRequest, "dissent: client %q not in schedule", client)
	}
	if len(msg) > sched.SlotLen {
		return nil, nymerr.Newf(anonnet.CodeBadFrame, "dissent: message %d bytes exceeds slot %d", len(msg), sched.SlotLen)
	}
	ct := make([]byte, sched.RoundLen())
	for _, srv := range servers {
		xorInto(ct, prg(SharedSecret(client, srv), round, len(ct)))
	}
	xorInto(ct[slot*sched.SlotLen:slot*sched.SlotLen+len(msg)], msg)
	return ct, nil
}

// ServerShare produces a server's share: the XOR of the pads it
// shares with every client.
func ServerShare(sched *Schedule, server string, round uint64) []byte {
	share := make([]byte, sched.RoundLen())
	for _, cl := range sched.Clients {
		xorInto(share, prg(SharedSecret(cl, server), round, len(share)))
	}
	return share
}

// ErrLengthMismatch is returned when round inputs disagree on length.
var ErrLengthMismatch = nymerr.New(anonnet.CodeBadFrame, "dissent: ciphertext length mismatch")

// CombineRound XORs all client ciphertexts and server shares,
// revealing the round's plaintext slots.
func CombineRound(ciphertexts, shares [][]byte) ([]byte, error) {
	if len(ciphertexts) == 0 {
		return nil, nymerr.New(anonnet.CodeBadRequest, "dissent: no ciphertexts")
	}
	n := len(ciphertexts[0])
	out := make([]byte, n)
	for _, ct := range ciphertexts {
		if len(ct) != n {
			return nil, ErrLengthMismatch
		}
		xorInto(out, ct)
	}
	for _, sh := range shares {
		if len(sh) != n {
			return nil, ErrLengthMismatch
		}
		xorInto(out, sh)
	}
	return out, nil
}

// RunRound executes a full round for the schedule: messages maps
// client name to its (optional) message. It returns the revealed
// slots, one per client in schedule order. It is the reference
// execution used by tests and by the simulated wire protocol for
// small payloads.
func RunRound(sched *Schedule, servers []string, round uint64, messages map[string][]byte) ([][]byte, error) {
	var cts [][]byte
	for _, cl := range sched.Clients {
		ct, err := ClientCiphertext(sched, servers, cl, round, messages[cl])
		if err != nil {
			return nil, err
		}
		cts = append(cts, ct)
	}
	var shares [][]byte
	for _, srv := range servers {
		shares = append(shares, ServerShare(sched, srv, round))
	}
	combined, err := CombineRound(cts, shares)
	if err != nil {
		return nil, err
	}
	slots := make([][]byte, len(sched.Clients))
	for i := range sched.Clients {
		slots[i] = combined[i*sched.SlotLen : (i+1)*sched.SlotLen]
	}
	return slots, nil
}
