// Package aesprg provides the AES-based primitives every OT-extension
// implementation on CPUs uses (§2.3.1 of the paper): fixed-key AES as a
// length-doubling PRG for GGM trees, an AES-CTR pseudorandom stream, and
// the MMO-style correlation-robust hash H used to convert COT
// correlations into chosen-message OTs.
package aesprg

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"

	"ironman/internal/block"
)

// Fixed public PRG keys. Any fixed constants work: GGM security rests on
// the seed being secret, the keys are a public parameter of the scheme
// (this mirrors the fixed-key AES used by EMP/Ferret).
var fixedKeys = [4][16]byte{
	{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f},
	{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0xba, 0xcb, 0xdc, 0xed, 0xfe, 0x0f},
	{0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77},
	{0x13, 0x57, 0x9b, 0xdf, 0x24, 0x68, 0xac, 0xe0, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88},
}

// Doubler is a length-doubling (or length-m-tupling) PRG built from m
// fixed-key AES instances: child_i(s) = AES_{k_i}(s) ⊕ s.
type Doubler struct {
	ciphers []cipher.Block
}

// NewDoubler returns a PRG that expands one block into arity children.
// arity must be between 2 and 4 (the paper's design space).
func NewDoubler(arity int) *Doubler {
	if arity < 2 || arity > len(fixedKeys) {
		panic("aesprg: arity out of range")
	}
	d := &Doubler{ciphers: make([]cipher.Block, arity)}
	for i := 0; i < arity; i++ {
		c, err := aes.NewCipher(fixedKeys[i][:])
		if err != nil {
			panic(err) // unreachable: key length is fixed at 16
		}
		d.ciphers[i] = c
	}
	return d
}

// Arity returns the number of children per expansion.
func (d *Doubler) Arity() int { return len(d.ciphers) }

// Expand writes the first len(children) children of parent into
// children; len(children) must be between 1 and Arity(). Each child
// costs exactly one AES call, so a full expansion is Arity() AES ops —
// the quantity Figures 6/7a count.
func (d *Doubler) Expand(parent block.Block, children []block.Block) {
	if len(children) < 1 || len(children) > len(d.ciphers) {
		panic("aesprg: children slice has wrong length")
	}
	var in, out [16]byte
	parent.Put(in[:])
	for i := range children {
		d.ciphers[i].Encrypt(out[:], in[:])
		children[i] = block.FromBytes(out[:]).Xor(parent)
	}
}

// Hash is the MMO correlation-robust hash H(x) = AES_k(σ(x)) ⊕ σ(x)
// with a fixed key and the linear orthomorphism σ from Guo et al.
// A per-use tweak (e.g. the OT instance index) is XORed into the input
// to give each invocation an independent random oracle.
type Hash struct {
	c cipher.Block
}

// NewHash returns the standard CRHF instance.
func NewHash() *Hash {
	c, err := aes.NewCipher(fixedKeys[0][:])
	if err != nil {
		panic(err)
	}
	return &Hash{c: c}
}

// Sum computes H(x ⊕ tweak).
func (h *Hash) Sum(x block.Block, tweak uint64) block.Block {
	s := x.Sigma()
	s.Lo ^= tweak
	var in, out [16]byte
	s.Put(in[:])
	h.c.Encrypt(out[:], in[:])
	return block.FromBytes(out[:]).Xor(s)
}

// Stream is a deterministic AES-CTR pseudorandom stream seeded by a
// block. It backs the IKNP column expansion and the LPN index matrix.
type Stream struct {
	c   cipher.Block
	ctr uint64
	in  [16]byte // counter block; a field so Encrypt does not allocate one per refill
	buf [16]byte
	n   int // bytes of buf already consumed
}

// NewStream returns a PRG stream keyed by seed.
func NewStream(seed block.Block) *Stream {
	c, err := aes.NewCipher(seed.Bytes())
	if err != nil {
		panic(err)
	}
	return &Stream{c: c, n: 16}
}

func (s *Stream) refill() {
	binary.LittleEndian.PutUint64(s.in[:8], s.ctr)
	s.ctr++
	s.c.Encrypt(s.buf[:], s.in[:])
	s.n = 0
}

// Fill overwrites p with pseudorandom bytes.
func (s *Stream) Fill(p []byte) {
	for len(p) > 0 {
		if s.n == 16 {
			s.refill()
		}
		n := copy(p, s.buf[s.n:])
		s.n += n
		p = p[n:]
	}
}

// Uint32 returns the next pseudorandom 32-bit value.
func (s *Stream) Uint32() uint32 {
	var b [4]byte
	s.Fill(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Uint64 returns the next pseudorandom 64-bit value.
func (s *Stream) Uint64() uint64 {
	var b [8]byte
	s.Fill(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Uint32n returns a pseudorandom value in [0, n) using rejection
// sampling, so the distribution is exactly uniform.
func (s *Stream) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("aesprg: Uint32n(0)")
	}
	// Rejection threshold: largest multiple of n that fits in 2^32.
	limit := -n % n // (2^32 - n) % n == (2^32 % n)
	for {
		v := s.Uint32()
		if v >= limit {
			return v % n
		}
	}
}

// Block returns the next pseudorandom block.
func (s *Stream) Block() block.Block {
	var b [16]byte
	s.Fill(b[:])
	return block.FromBytes(b[:])
}

// Blocks fills dst with pseudorandom blocks (the same stream bytes as
// one Block call per element, filled a chunk at a time).
func (s *Stream) Blocks(dst []block.Block) {
	var buf [64 * block.Size]byte
	for len(dst) > 0 {
		m := min(len(dst), 64)
		s.Fill(buf[:m*block.Size])
		for i := range dst[:m] {
			dst[i] = block.FromBytes(buf[i*block.Size:])
		}
		dst = dst[m:]
	}
}

// Bits fills dst with pseudorandom booleans, eight per stream byte,
// least significant bit first.
func (s *Stream) Bits(dst []bool) {
	var buf [512]byte
	for i := 0; i < len(dst); {
		m := min((len(dst)-i+7)/8, len(buf))
		s.Fill(buf[:m])
		for _, b := range buf[:m] {
			for j := 0; j < 8 && i < len(dst); j++ {
				dst[i] = b>>uint(j)&1 == 1
				i++
			}
		}
	}
}
