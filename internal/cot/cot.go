// Package cot defines correlated-OT stores and the oblivious-transfer
// sub-protocols built on them.
//
// A COT correlation (Figure 2 of the paper) gives the sender random
// blocks r0 with a global Δ (r1 = r0 ⊕ Δ implied) and the receiver a
// random bit b with r_b = r0 ⊕ b·Δ. The package converts pools of such
// correlations into:
//
//   - chosen-message 1-out-of-2 OT (SendChosen/ReceiveChosen), the
//     classic Beaver derandomization plus a correlation-robust hash;
//   - (m-1)-out-of-m OT (SendAllButOne/ReceiveAllButOne), realized with
//     an m-leaf GGM tree at a cost of only log2(m) COTs (§4.2), which is
//     what makes m-ary SPCOT correlation-neutral.
package cot

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/bits"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/ggm"
	"ironman/internal/prg"
	"ironman/internal/transport"
)

// ErrExhausted is returned when a pool has fewer correlations left than
// a protocol step needs.
var ErrExhausted = errors.New("cot: correlation pool exhausted")

// SenderPool holds the sender's side of a batch of COT correlations.
type SenderPool struct {
	Delta block.Block
	r0    []block.Block
	used  int
}

// ReceiverPool holds the receiver's side of a batch of COT correlations.
type ReceiverPool struct {
	bits   []bool
	blocks []block.Block
	used   int
}

// NewSenderPool wraps correlations (r0 values) under the global Delta.
func NewSenderPool(delta block.Block, r0 []block.Block) *SenderPool {
	return &SenderPool{Delta: delta, r0: r0}
}

// NewReceiverPool wraps correlations (choice bits and r_b values). A
// bits/blocks length mismatch is reported as an error, matching the
// error discipline of the pool-exhaustion paths.
func NewReceiverPool(bits []bool, blocks []block.Block) (*ReceiverPool, error) {
	if len(bits) != len(blocks) {
		return nil, fmt.Errorf("cot: bits/blocks length mismatch: %d bits, %d blocks", len(bits), len(blocks))
	}
	return &ReceiverPool{bits: bits, blocks: blocks}, nil
}

// Remaining reports how many unconsumed correlations are left.
func (p *SenderPool) Remaining() int   { return len(p.r0) - p.used }
func (p *ReceiverPool) Remaining() int { return len(p.bits) - p.used }

// Used reports how many correlations have been consumed; both parties
// consume in lockstep, so Used doubles as the hash-tweak base.
func (p *SenderPool) Used() int   { return p.used }
func (p *ReceiverPool) Used() int { return p.used }

// TakeBlocks consumes n correlations, returning their r0 blocks. Used
// when correlations feed a local computation (the LPN input) rather
// than an OT sub-protocol.
func (p *SenderPool) TakeBlocks(n int) ([]block.Block, error) {
	_, blocks, err := p.take(n)
	return blocks, err
}

// Take consumes n correlations, returning choice bits and r_b blocks.
func (p *ReceiverPool) Take(n int) ([]bool, []block.Block, error) {
	_, bits, blocks, err := p.take(n)
	return bits, blocks, err
}

// take advances the pool cursor by n, returning the starting offset.
func (p *SenderPool) take(n int) (int, []block.Block, error) {
	if p.Remaining() < n {
		return 0, nil, fmt.Errorf("%w: need %d, have %d", ErrExhausted, n, p.Remaining())
	}
	off := p.used
	p.used += n
	return off, p.r0[off : off+n], nil
}

func (p *ReceiverPool) take(n int) (int, []bool, []block.Block, error) {
	if p.Remaining() < n {
		return 0, nil, nil, fmt.Errorf("%w: need %d, have %d", ErrExhausted, n, p.Remaining())
	}
	off := p.used
	p.used += n
	return off, p.bits[off : off+n], p.blocks[off : off+n], nil
}

// SendChosen runs the sender side of len(msgs) chosen-message 1-of-2
// OTs, consuming one COT each. msgs[i] is the pair (m_i^0, m_i^1).
//
// Wire format: receiver sends the correction bits d_i = c_i ⊕ b_i; the
// sender replies with (m0 ⊕ H(r_{d}), m1 ⊕ H(r_{1-d})) per instance,
// where H is tweaked by the pool offset so every instance gets an
// independent oracle.
func SendChosen(conn transport.Conn, pool *SenderPool, h *aesprg.Hash, msgs [][2]block.Block) error {
	n := len(msgs)
	off, r0, err := pool.take(n)
	if err != nil {
		return err
	}
	ds, err := transport.RecvBits(conn, n)
	if err != nil {
		return err
	}
	cts := make([]block.Block, 2*n)
	for i := 0; i < n; i++ {
		rd := r0[i]
		rnd := r0[i].Xor(pool.Delta)
		if ds[i] {
			rd, rnd = rnd, rd
		}
		tweak := uint64(off + i)
		cts[2*i] = msgs[i][0].Xor(h.Sum(rd, tweak))
		cts[2*i+1] = msgs[i][1].Xor(h.Sum(rnd, tweak))
	}
	return transport.SendBlocks(conn, cts)
}

// ReceiveChosen runs the receiver side; choices[i] selects which of the
// sender's two messages instance i yields.
func ReceiveChosen(conn transport.Conn, pool *ReceiverPool, h *aesprg.Hash, choices []bool) ([]block.Block, error) {
	n := len(choices)
	off, bits, rb, err := pool.take(n)
	if err != nil {
		return nil, err
	}
	ds := make([]bool, n)
	for i := range ds {
		ds[i] = choices[i] != bits[i]
	}
	if err := transport.SendBits(conn, ds); err != nil {
		return nil, err
	}
	cts, err := transport.RecvBlocks(conn, 2*n)
	if err != nil {
		return nil, err
	}
	out := make([]block.Block, n)
	for i := 0; i < n; i++ {
		ct := cts[2*i]
		if choices[i] {
			ct = cts[2*i+1]
		}
		out[i] = ct.Xor(h.Sum(rb[i], uint64(off+i)))
	}
	return out, nil
}

// bit reads bit i of a limb-packed vector.
func bit(limbs []uint64, i int) uint64 { return limbs[i/64] >> (uint(i) % 64) & 1 }

// setBit ORs v (0 or 1) into bit i of a limb-packed vector.
func setBit(limbs []uint64, i int, v uint64) { limbs[i/64] |= v << (uint(i) % 64) }

// SendChosenBits runs the sender side of n chosen-message 1-of-2 OTs
// whose messages are single bits, consuming one COT each. m0 and m1
// are limb-packed bit vectors (64 bits per uint64, LSB-first): bit i
// of m0/m1 is the message pair of instance i.
//
// Wire format (the bit-packed chosen-OT frame): the receiver sends
// packed correction bits d_i = c_i ⊕ b_i (⌈n/8⌉ bytes); the sender
// replies with a single 2·⌈n/8⌉-byte frame ct0 || ct1 where
//
//	ct0_i = m0_i ⊕ lsb(H(r_{d_i}))    ct1_i = m1_i ⊕ lsb(H(r_{1-d_i}))
//
// and H is tweaked by the pool offset exactly as in SendChosen. Versus
// SendChosen's two 16-byte blocks per instance the reply carries 2
// bits, a 128x payload reduction — this is what makes GMW AND gates
// (1-bit secrets) cheap on the wire.
func SendChosenBits(conn transport.Conn, pool *SenderPool, h *aesprg.Hash, m0, m1 []uint64, n int) error {
	if limbs := transport.PackedLimbs(n); len(m0) < limbs || len(m1) < limbs {
		return fmt.Errorf("cot: SendChosenBits needs %d limbs for %d bits, got %d/%d", limbs, n, len(m0), len(m1))
	}
	off, r0, err := pool.take(n)
	if err != nil {
		return err
	}
	msg, err := conn.Recv()
	if err != nil {
		return err
	}
	ds, err := transport.WireToPacked(msg, n)
	if err != nil {
		return err
	}
	ct0 := make([]uint64, transport.PackedLimbs(n))
	ct1 := make([]uint64, transport.PackedLimbs(n))
	for i := 0; i < n; i++ {
		rd := r0[i]
		rnd := r0[i].Xor(pool.Delta)
		if bit(ds, i) == 1 {
			rd, rnd = rnd, rd
		}
		tweak := uint64(off + i)
		setBit(ct0, i, bit(m0, i)^h.Sum(rd, tweak).Lo&1)
		setBit(ct1, i, bit(m1, i)^h.Sum(rnd, tweak).Lo&1)
	}
	frame := append(transport.PackedToWire(ct0, n), transport.PackedToWire(ct1, n)...)
	// Both peers compute the frame size from n, so the chunked byte
	// framing reassembles oversized batches transparently.
	return transport.SendBytes(conn, frame)
}

// ReceiveChosenBits runs the receiver side of SendChosenBits: choices
// is a limb-packed choice-bit vector, and the result is the selected
// message bits in the same packing (trailing bits past n are zero).
func ReceiveChosenBits(conn transport.Conn, pool *ReceiverPool, h *aesprg.Hash, choices []uint64, n int) ([]uint64, error) {
	limbs := transport.PackedLimbs(n)
	if len(choices) < limbs {
		return nil, fmt.Errorf("cot: ReceiveChosenBits needs %d limbs for %d bits, got %d", limbs, n, len(choices))
	}
	off, bits, rb, err := pool.take(n)
	if err != nil {
		return nil, err
	}
	ds := make([]uint64, limbs)
	for i := 0; i < n; i++ {
		c := bit(choices, i)
		b := uint64(0)
		if bits[i] {
			b = 1
		}
		setBit(ds, i, c^b)
	}
	if err := conn.Send(transport.PackedToWire(ds, n)); err != nil {
		return nil, err
	}
	half := (n + 7) / 8
	frame, err := transport.RecvBytes(conn, 2*half)
	if err != nil {
		return nil, fmt.Errorf("cot: bit-OT frame: %w", err)
	}
	ct0, err := transport.WireToPacked(frame[:half], n)
	if err != nil {
		return nil, err
	}
	ct1, err := transport.WireToPacked(frame[half:], n)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, limbs)
	for i := 0; i < n; i++ {
		ct := bit(ct0, i)
		if bit(choices, i) == 1 {
			ct = bit(ct1, i)
		}
		setBit(out, i, ct^h.Sum(rb[i], uint64(off+i)).Lo&1)
	}
	return out, nil
}

// bitWriter tightly packs variable-width bit fields, LSB-first — the
// wire layout of the word-payload chosen-OT ciphertext frame, where
// instance i contributes exactly widths[i] bits per ciphertext.
type bitWriter struct {
	buf  []byte
	nbit int
}

func (w *bitWriter) write(v uint64, width int) {
	for width > 0 {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		off := uint(w.nbit % 8)
		take := 8 - int(off)
		if take > width {
			take = width
		}
		w.buf[len(w.buf)-1] |= byte(v&(1<<uint(take)-1)) << off
		v >>= uint(take)
		width -= take
		w.nbit += take
	}
}

// bitReader is the inverse of bitWriter.
type bitReader struct {
	buf  []byte
	nbit int
}

func (r *bitReader) read(width int) (uint64, error) {
	var v uint64
	shift := uint(0)
	for width > 0 {
		if r.nbit/8 >= len(r.buf) {
			return 0, fmt.Errorf("cot: word-OT frame truncated at bit %d", r.nbit)
		}
		off := uint(r.nbit % 8)
		take := 8 - int(off)
		if take > width {
			take = width
		}
		v |= uint64(r.buf[r.nbit/8]>>off&(1<<uint(take)-1)) << shift
		shift += uint(take)
		width -= take
		r.nbit += take
	}
	return v, nil
}

// wordMask returns the low-w-bit mask (w in [0, 64]).
func wordMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// wordFrameBytes is the ciphertext frame size of n word OTs: 2·widths[i]
// bits per instance, rounded up to whole bytes once.
func wordFrameBytes(widths []int) int {
	total := 0
	for _, w := range widths {
		total += 2 * w
	}
	return (total + 7) / 8
}

// SendChosenWords runs the sender side of len(widths) chosen-message
// 1-of-2 OTs whose messages are uint64 words taken mod 2^widths[i],
// consuming one COT each. The reply frame packs each ciphertext to
// exactly widths[i] bits, so callers whose high message bits are
// irrelevant (Gilboa multiplication: bit i of the multiplier only
// needs the product mod 2^(64-i)) pay only for the bits that matter —
// at widths 64..1 that is 2x less payload than fixed 64-bit words and
// 3.9x less than riding SendChosen's two 128-bit blocks.
//
// Wire format: the receiver sends packed correction bits d_i = c_i ⊕
// b_i (⌈n/8⌉ bytes); the sender replies with one tightly bit-packed
// frame of pairs (ct0_i, ct1_i), widths[i] bits each, where
//
//	ct0_i = (m0_i ⊕ lo64(H(r_{d_i})))   mod 2^widths[i]
//	ct1_i = (m1_i ⊕ lo64(H(r_{1-d_i}))) mod 2^widths[i]
//
// and H is tweaked by the pool offset exactly as in SendChosen. A
// width of 0 is legal: the instance consumes its COT (keeping both
// pools in lockstep) but ships no ciphertext bits.
func SendChosenWords(conn transport.Conn, pool *SenderPool, h *aesprg.Hash, m0, m1 []uint64, widths []int) error {
	n := len(widths)
	if len(m0) != n || len(m1) != n {
		return fmt.Errorf("cot: SendChosenWords needs %d messages per side, got %d/%d", n, len(m0), len(m1))
	}
	off, r0, err := pool.take(n)
	if err != nil {
		return err
	}
	msg, err := conn.Recv()
	if err != nil {
		return err
	}
	ds, err := transport.WireToPacked(msg, n)
	if err != nil {
		return err
	}
	w := bitWriter{buf: make([]byte, 0, wordFrameBytes(widths))}
	for i := 0; i < n; i++ {
		rd := r0[i]
		rnd := r0[i].Xor(pool.Delta)
		if bit(ds, i) == 1 {
			rd, rnd = rnd, rd
		}
		tweak := uint64(off + i)
		mask := wordMask(widths[i])
		w.write((m0[i]^h.Sum(rd, tweak).Lo)&mask, widths[i])
		w.write((m1[i]^h.Sum(rnd, tweak).Lo)&mask, widths[i])
	}
	// A large Gilboa batch (>~127k triples, or one big matmul's flattened
	// products) exceeds MaxMessage; both peers derive the frame size
	// from widths, so the chunked byte framing keeps them in sync.
	return transport.SendBytes(conn, w.buf)
}

// ReceiveChosenWords runs the receiver side of SendChosenWords:
// choices is a limb-packed choice-bit vector (bit i selects instance
// i's message) and the result is the selected words, each reduced mod
// 2^widths[i].
func ReceiveChosenWords(conn transport.Conn, pool *ReceiverPool, h *aesprg.Hash, choices []uint64, widths []int) ([]uint64, error) {
	n := len(widths)
	if limbs := transport.PackedLimbs(n); len(choices) < limbs {
		return nil, fmt.Errorf("cot: ReceiveChosenWords needs %d limbs for %d choices, got %d", limbs, n, len(choices))
	}
	off, bits, rb, err := pool.take(n)
	if err != nil {
		return nil, err
	}
	ds := make([]uint64, transport.PackedLimbs(n))
	for i := 0; i < n; i++ {
		b := uint64(0)
		if bits[i] {
			b = 1
		}
		setBit(ds, i, bit(choices, i)^b)
	}
	if err := conn.Send(transport.PackedToWire(ds, n)); err != nil {
		return nil, err
	}
	frame, err := transport.RecvBytes(conn, wordFrameBytes(widths))
	if err != nil {
		return nil, fmt.Errorf("cot: word-OT frame: %w", err)
	}
	r := bitReader{buf: frame}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		ct0, err := r.read(widths[i])
		if err != nil {
			return nil, err
		}
		ct1, err := r.read(widths[i])
		if err != nil {
			return nil, err
		}
		ct := ct0
		if bit(choices, i) == 1 {
			ct = ct1
		}
		out[i] = (ct ^ h.Sum(rb[i], uint64(off+i)).Lo) & wordMask(widths[i])
	}
	return out, nil
}

// abOnePRG is the fixed PRG used inside the all-but-one GGM gadget.
// A binary AES PRG keeps the gadget independent of the caller's choice
// of tree PRG (it is a different, tiny tree).
func abOnePRG() prg.PRG { return prg.New(prg.AES, 2) }

// SendAllButOne transfers len(msgs) messages such that the receiver
// learns every message except the one at its secret index. len(msgs)
// must be a power of two >= 2. Consumes log2(len(msgs)) COTs.
func SendAllButOne(conn transport.Conn, pool *SenderPool, h *aesprg.Hash, msgs []block.Block) error {
	var seedBytes [block.Size]byte
	//ironman:allow(randsrc) the gadget tree root must be fresh system entropy per transfer; the deterministic variant is SendAllButOneSeeded
	if _, err := rand.Read(seedBytes[:]); err != nil {
		return err
	}
	return SendAllButOneSeeded(conn, pool, h, msgs, block.FromBytes(seedBytes[:]))
}

// SendAllButOneSeeded is SendAllButOne with a caller-provided gadget
// tree seed. The seed must be secret and fresh per call (SendAllButOne
// draws it from crypto/rand; spcot derives it from each execution's
// secret GGM root so a whole sender flight is a deterministic function
// of that root — what the parallel-vs-sequential transcript
// cross-checks rely on).
func SendAllButOneSeeded(conn transport.Conn, pool *SenderPool, h *aesprg.Hash, msgs []block.Block, seed block.Block) error {
	m := len(msgs)
	if m < 2 || bits.OnesCount(uint(m)) != 1 {
		return fmt.Errorf("cot: all-but-one needs a power-of-two message count, got %d", m)
	}
	p := abOnePRG()
	arities := ggm.LevelArities(m, 2)
	tree := ggm.Expand(p, seed, arities)

	// Per level, offer (K0, K1) through a chosen OT; the receiver takes
	// the sum opposite its path digit.
	for level := 1; level <= tree.Depth(); level++ {
		sums := tree.LevelSums(level)
		if err := SendChosen(conn, pool, h, [][2]block.Block{{sums[0], sums[1]}}); err != nil {
			return err
		}
	}
	// Mask each message with a hash of its leaf.
	leaves := tree.Leaves()
	cts := make([]block.Block, m)
	base := uint64(pool.Used()) << 32 // domain-separate from the OT tweaks
	for j := 0; j < m; j++ {
		cts[j] = msgs[j].Xor(h.Sum(leaves[j], base+uint64(j)))
	}
	return transport.SendBlocks(conn, cts)
}

// ReceiveAllButOne receives every message except msgs[alpha]. The
// returned slice has the punctured slot zeroed.
func ReceiveAllButOne(conn transport.Conn, pool *ReceiverPool, h *aesprg.Hash, m, alpha int) ([]block.Block, error) {
	if m < 2 || bits.OnesCount(uint(m)) != 1 {
		return nil, fmt.Errorf("cot: all-but-one needs a power-of-two message count, got %d", m)
	}
	if alpha < 0 || alpha >= m {
		return nil, fmt.Errorf("cot: alpha %d out of range [0,%d)", alpha, m)
	}
	p := abOnePRG()
	arities := ggm.LevelArities(m, 2)
	digits := ggm.Digits(alpha, arities)

	sums := make([][]block.Block, len(arities))
	for i := range arities {
		// Binary level: ask for the sum at position 1-digit.
		want := digits[i] == 0 // true selects message index 1
		got, err := ReceiveChosen(conn, pool, h, []bool{want})
		if err != nil {
			return nil, err
		}
		sums[i] = make([]block.Block, 2)
		sums[i][1-digits[i]] = got[0]
	}
	rec := ggm.Reconstruct(p, arities, alpha, sums)

	cts, err := transport.RecvBlocks(conn, m)
	if err != nil {
		return nil, err
	}
	out := make([]block.Block, m)
	base := uint64(pool.Used()) << 32
	for j := 0; j < m; j++ {
		if j == alpha {
			continue
		}
		out[j] = cts[j].Xor(h.Sum(rec.Leaves[j], base+uint64(j)))
	}
	return out, nil
}

// Deal is the repo's one correlation dealer: it fills r0 with the
// sender's blocks, then bits with the receiver's choice bits, both
// drawn from s, and rb with the receiver's r_b = r0 ⊕ b·Δ. The three
// slices must have equal length. Whoever knows the seed of s knows
// every correlation, so the dealer is exactly as secret as that seed.
func Deal(s *aesprg.Stream, delta block.Block, r0 []block.Block, bits []bool, rb []block.Block) {
	if len(bits) != len(r0) || len(rb) != len(r0) {
		panic("cot: Deal slices differ in length")
	}
	s.Blocks(r0)
	s.Bits(bits)
	for i, r := range r0 {
		rb[i] = r
		if bits[i] {
			rb[i] = r.Xor(delta)
		}
	}
}

// RandomPools deals a correlated pair of pools under a fresh random Δ
// from a stream keyed by crypto/rand. This is the "trusted dealer"
// shortcut used by tests and benchmarks that focus on post-init
// behaviour; production initialization goes through internal/iknp
// (see ferret.NewSender).
func RandomPools(n int) (*SenderPool, *ReceiverPool, error) {
	var deltaBytes [block.Size]byte
	//ironman:allow(randsrc) trusted-dealer shortcut for tests and benchmarks; production initialization flows through internal/iknp setup
	if _, err := rand.Read(deltaBytes[:]); err != nil {
		return nil, nil, err
	}
	return RandomPoolsWithDelta(block.FromBytes(deltaBytes[:]), n)
}

// RandomPoolsWithDelta is RandomPools under a caller-chosen Δ.
func RandomPoolsWithDelta(delta block.Block, n int) (*SenderPool, *ReceiverPool, error) {
	var seed [block.Size]byte
	//ironman:allow(randsrc) trusted-dealer shortcut for tests and benchmarks; production initialization flows through internal/iknp setup
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, nil, err
	}
	return PoolsFromStream(aesprg.NewStream(block.FromBytes(seed[:])), delta, n)
}

// PoolsFromStream wraps a Deal from s into a pair of pools — the
// dealer behind ferret.Options.Seed. The pools are only as secret as
// the seed of s: a known seed (a test or benchmark constant) yields
// correlations anyone can recompute.
func PoolsFromStream(s *aesprg.Stream, delta block.Block, n int) (*SenderPool, *ReceiverPool, error) {
	r0, bits, rb := make([]block.Block, n), make([]bool, n), make([]block.Block, n)
	Deal(s, delta, r0, bits, rb)
	rp, err := NewReceiverPool(bits, rb)
	if err != nil {
		return nil, nil, err
	}
	return NewSenderPool(delta, r0), rp, nil
}
