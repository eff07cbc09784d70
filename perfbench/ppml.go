package main

import (
	"bytes"
	"crypto/aes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"ironman"
	"ironman/internal/arith"
	"ironman/internal/circuit"
	"ironman/internal/cot"
	"ironman/internal/gmw"
	"ironman/internal/obs"
	"ironman/internal/ppml"
	"ironman/internal/transport"
)

// The ppml request shapes: a d-h-o fixed-point MLP with a ReLU hidden
// layer, and aesBlocks SIMD-packed AES-128 instances.
const (
	mlpIn      = 64
	mlpHidden  = 64
	mlpOut     = 10
	aesBlocks  = 4
	ppmlSetups = 15
)

var fixed = arith.Fixed{Frac: 12}

// mlpTolerance is the truncation error bound: one ulp per truncation
// plus quantized-operand rounding across the fan-in.
var mlpTolerance = float64(mlpIn+mlpHidden+4) / float64(int64(1)<<fixed.Frac)

// Lane ids of the two parties: arith/gmw Observe spans land on 1 for
// the first party and 2 for its peer.
const (
	laneA = 1
	laneB = 2
)

type mlpModel struct{ w1, b1, w2, b2 []float64 }

// ppmlSession is one two-party arith session (each arith.Party embeds
// the gmw.Party that runs its Boolean layers) over an in-process pipe,
// plus the compiled AES-128 circuit.
type ppmlSession struct {
	a, b         *arith.Party
	connA, connB transport.Conn
	prog         *circuit.Program
}

// newPPMLSession runs the role handshake and compiles the circuit. The
// parties start with empty pools; deal refills them per request.
func newPPMLSession() (*ppmlSession, error) {
	s := &ppmlSession{}
	s.connA, s.connB = transport.Pipe()
	var errA, errB error
	done := make(chan struct{})
	go func() {
		defer close(done)
		sp, rp, err := cot.RandomPools(0)
		if err == nil {
			s.a, err = arith.NewParty(s.connA, sp, rp, true)
		}
		if errA = err; err != nil {
			_ = s.connA.Close()
		}
	}()
	sp, rp, err := cot.RandomPools(0)
	if err == nil {
		s.b, err = arith.NewParty(s.connB, sp, rp, false)
	}
	if errB = err; err != nil {
		_ = s.connB.Close()
	}
	<-done
	if err := errors.Join(errA, errB); err != nil {
		s.close()
		return nil, fmt.Errorf("party handshake: %w", err)
	}
	if s.prog, err = circuit.Compile(circuit.AES128()); err != nil {
		s.close()
		return nil, fmt.Errorf("compile AES-128: %w", err)
	}
	return s, nil
}

func (s *ppmlSession) close() {
	_ = s.connA.Close()
	_ = s.connB.Close()
}

// deal hands both parties fresh correlations: n per OT direction, from
// the trusted-dealer shortcut the secure-mlp example uses.
func (s *ppmlSession) deal(n int) error {
	sAB, rAB, err := cot.RandomPools(n)
	if err != nil {
		return err
	}
	sBA, rBA, err := cot.RandomPools(n)
	if err != nil {
		return err
	}
	s.a.Out, s.a.In, s.a.Bool.Out, s.a.Bool.In = sAB, rBA, sAB, rBA
	s.b.Out, s.b.In, s.b.Bool.Out, s.b.Bool.In = sBA, rAB, sBA, rAB
	return nil
}

// observe points both parties' existing instrumentation (arith.open
// and gmw.exchange spans) at tr; nil turns it off.
func (s *ppmlSession) observe(tr *obs.Tracer) {
	s.a.Observe(nil, tr, "")
	s.b.Observe(nil, tr, "")
}

// both runs f for party A on a new goroutine and for party B on this
// one, closing a failed party's conn so its peer cannot block.
func (s *ppmlSession) both(f func(p *arith.Party, conn transport.Conn, lane int) error) error {
	var errA error
	done := make(chan struct{})
	go func() {
		defer close(done)
		if errA = f(s.a, s.connA, laneA); errA != nil {
			_ = s.connA.Close()
		}
	}()
	errB := f(s.b, s.connB, laneB)
	if errB != nil {
		_ = s.connB.Close()
	}
	<-done
	return errors.Join(errA, errB)
}

// mlpBudget is the per-direction correlation budget of one inference,
// from the operator cost models.
func mlpBudget() int {
	l1 := ppml.ArithMatTripleCost(mlpHidden, mlpIn, 1)
	l2 := ppml.ArithMatTripleCost(mlpOut, mlpHidden, 1)
	a2b := ppml.ArithA2BCost(mlpHidden, 64)
	relu := ppml.GMWMuxCost(mlpHidden, 64)
	b2a := ppml.ArithB2ACost(mlpHidden, 64)
	return int(l1.COTs/2+l2.COTs/2) + int(a2b.OTs/2+relu.OTs/2) + int(b2a.COTs)
}

// inferParty is one party's side of a secure inference: A owns the
// model, B the input. It returns the revealed logits and the wire bytes
// of the two matrix-triple generations.
func inferParty(p *arith.Party, conn transport.Conn, tr *obs.Tracer, lane int, m *mlpModel, x []float64) ([]float64, [2]int64, error) {
	var tripleBytes [2]int64
	owner := lane == laneA
	call := func(name string, f func() error) error {
		sp := tr.Span(name, "bench", lane)
		defer sp.End()
		return f()
	}
	triple := func(i, rows, cols int) (t *arith.MatTriple, err error) {
		err = call("arith.triple", func() error {
			before := conn.Stats().TotalBytes()
			t, err = p.NewMatTriple(rows, cols, 1)
			tripleBytes[i] = conn.Stats().TotalBytes() - before
			return err
		})
		return t, err
	}
	layer := func(w, b []float64, in arith.Share, t *arith.MatTriple) (z arith.Share, err error) {
		ws := p.NewPrivate(fixed.EncodeVec(w), owner)
		bs := p.NewPrivate(fixed.EncodeVec(b), owner)
		if err := call("arith.matvec", func() (err error) { z, err = p.MatVec(ws, in, t); return err }); err != nil {
			return nil, err
		}
		err = call("arith.trunc", func() (err error) { z, err = arith.Add(p.TruncVec(z, fixed.Frac), bs); return err })
		return z, err
	}

	t1, err := triple(0, mlpHidden, mlpIn)
	if err != nil {
		return nil, tripleBytes, err
	}
	t2, err := triple(1, mlpOut, mlpHidden)
	if err != nil {
		return nil, tripleBytes, err
	}
	z1, err := layer(m.w1, m.b1, p.NewPrivate(fixed.EncodeVec(x), !owner), t1)
	if err != nil {
		return nil, tripleBytes, err
	}
	var planes []gmw.PackedShare
	if err := call("arith.a2b", func() (err error) { planes, err = p.A2B(z1, 64); return err }); err != nil {
		return nil, tripleBytes, err
	}
	if err := call("gmw.relu", func() (err error) { planes, err = p.Bool.ReLUVec(planes); return err }); err != nil {
		return nil, tripleBytes, err
	}
	var h1 arith.Share
	if err := call("arith.b2a", func() (err error) { h1, err = p.B2A(planes); return err }); err != nil {
		return nil, tripleBytes, err
	}
	z2, err := layer(m.w2, m.b2, h1, t2)
	if err != nil {
		return nil, tripleBytes, err
	}
	var open []uint64
	if err := call("arith.open", func() (err error) { open, err = p.Reveal(z2); return err }); err != nil {
		return nil, tripleBytes, err
	}
	return fixed.DecodeVec(open), tripleBytes, nil
}

// plainMLP evaluates the model on the quantized parameters, the values
// the protocol computes on.
func plainMLP(m *mlpModel, x []float64) []float64 {
	q := func(v []float64) []float64 { return fixed.DecodeVec(fixed.EncodeVec(v)) }
	w1, b1, w2, b2, xq := q(m.w1), q(m.b1), q(m.w2), q(m.b2), q(x)
	h := make([]float64, mlpHidden)
	for i := range h {
		s := b1[i]
		for l := 0; l < mlpIn; l++ {
			s += w1[i*mlpIn+l] * xq[l]
		}
		h[i] = math.Max(s, 0)
	}
	out := make([]float64, mlpOut)
	for i := range out {
		s := b2[i]
		for l := 0; l < mlpHidden; l++ {
			s += w2[i*mlpHidden+l] * h[l]
		}
		out[i] = s
	}
	return out
}

// aesParty is one party's side of a threshold AES evaluation: both
// hold a key share, A also holds the plaintexts. It returns the opened
// ciphertexts and the evaluation's wire bytes (reveal excluded).
func (s *ppmlSession) aesParty(p *gmw.Party, conn transport.Conn, tr *obs.Tracer, lane int, keyShare []byte, pts [][]byte) ([][]bool, int64, error) {
	ptBits := make([][]bool, aesBlocks)
	keyBits := make([][]bool, aesBlocks)
	for k := range keyBits {
		if lane == laneA {
			ptBits[k] = ironman.BytesBits(pts[k])
		}
		keyBits[k] = ironman.BytesBits(keyShare)
	}
	sp := tr.Span("circuit.share", "bench", lane)
	ptPlanes, err := ironman.ShareCircuitInputs(ptBits, 128, lane == laneA)
	if err != nil {
		sp.End()
		return nil, 0, err
	}
	keyPlanes, err := ironman.ShareCircuitInputs(keyBits, 128, true)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.Span("circuit.eval", "bench", lane)
	before := conn.Stats().TotalBytes()
	out, err := s.prog.Eval(p, append(ptPlanes, keyPlanes...), &circuit.EvalOpts{Trace: tr, TID: lane})
	wire := conn.Stats().TotalBytes() - before
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.Span("circuit.reveal", "bench", lane)
	cts, err := ironman.RevealCircuitOutputs(p, out)
	sp.End()
	return cts, wire, err
}

// ppmlCounts are a request's exact counts, from party A's view.
type ppmlCounts struct {
	cots, exchanges, ands int
	bytes                 int64
	flights               int
}

func (s *ppmlSession) counts() ppmlCounts {
	sa, sb := s.connA.Stats(), s.connB.Stats()
	return ppmlCounts{
		cots:      s.a.Out.Used() + s.a.In.Used(),
		exchanges: s.a.Bool.Exchanges,
		ands:      s.a.Bool.ANDGates,
		bytes:     sa.TotalBytes(),
		flights:   sa.Flights + sb.Flights,
	}
}

// since is the counts consumed after c0. Pools are replaced per
// request, so their Used counts start from zero.
func (c ppmlCounts) since(c0 ppmlCounts) ppmlCounts {
	return ppmlCounts{
		cots:      c.cots,
		exchanges: c.exchanges - c0.exchanges,
		ands:      c.ands - c0.ands,
		bytes:     c.bytes - c0.bytes,
		flights:   c.flights - c0.flights,
	}
}

// ppmlPass is one measured pass's samples.
type ppmlPass struct {
	mlp, aes      []float64 // ms
	dealMS        []float64
	mlpN, aesN    ppmlCounts // per request (identical every request)
	worstMLPError float64
}

// ppmlInputs draws a run's model and key shares, and each request's
// input vector and plaintext blocks, from the workload seed.
type ppmlInputs struct {
	rng    *rand.Rand
	model  mlpModel
	kA, kB []byte
}

func newPPMLInputs(seed int64) *ppmlInputs {
	in := &ppmlInputs{rng: rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))}
	in.model = mlpModel{
		w1: in.vec(mlpHidden * mlpIn), b1: in.vec(mlpHidden),
		w2: in.vec(mlpOut * mlpHidden), b2: in.vec(mlpOut),
	}
	in.kA, in.kB = in.bytes(16), in.bytes(16)
	return in
}

// vec draws values in [-1, 1).
func (in *ppmlInputs) vec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*in.rng.Float64() - 1
	}
	return v
}

func (in *ppmlInputs) bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(in.rng.Uint32())
	}
	return b
}

// measure alternates MLP and AES requests for d, dealing each request's
// correlations before its clock starts and checking every output and
// exact count after it stops. trMLP/trAES, when non-nil, receive each
// kind's spans.
//
// The first request of each kind is a warm-up, checked but neither
// timed nor compared: transport.Stats merges back-to-back sends across
// a request boundary into one flight, so a request's flight count
// depends on the request before it, which is fixed only from then on.
func (s *ppmlSession) measure(d time.Duration, in *ppmlInputs, trMLP, trAES *obs.Tracer) (*ppmlPass, error) {
	out := &ppmlPass{}
	mlpCost1 := ppml.ArithMatTripleCost(mlpHidden, mlpIn, 1).WireBytes
	mlpCost2 := ppml.ArithMatTripleCost(mlpOut, mlpHidden, 1).WireBytes
	aesCost := ppml.CircuitCost(s.prog, aesBlocks).WireBytes
	var key [16]byte
	for i := range key {
		key[i] = in.kA[i] ^ in.kB[i]
	}
	cipher, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	mlpDeal, aesDeal := mlpBudget(), s.prog.ANDs*aesBlocks
	start := time.Now()
	for i := 0; time.Since(start) < d || len(out.aes) == 0; i++ {
		isMLP, warm := i%2 == 0, i < 2
		x := in.vec(mlpIn)
		pts := make([][]byte, aesBlocks)
		for k := range pts {
			pts[k] = in.bytes(16)
		}
		budget, tr := aesDeal, trAES
		if isMLP {
			budget, tr = mlpDeal, trMLP
		}
		t0 := time.Now()
		if err := s.deal(budget); err != nil {
			return nil, fmt.Errorf("deal: %w", err)
		}
		if warm {
			tr = nil
		} else {
			out.dealMS = append(out.dealMS, ms(time.Since(t0)))
		}
		s.observe(tr)
		c0 := s.counts()

		var logits [2][]float64
		var tripleBytes [2][2]int64
		var cts [2][][]bool
		var aesWire [2]int64
		t0 = time.Now()
		err := s.both(func(p *arith.Party, conn transport.Conn, lane int) (err error) {
			root := tr.Span(rootSpan, "bench", lane)
			defer root.End()
			if isMLP {
				logits[lane-1], tripleBytes[lane-1], err = inferParty(p, conn, tr, lane, &in.model, x)
				return err
			}
			share := in.kA
			if lane == laneB {
				share = in.kB
			}
			cts[lane-1], aesWire[lane-1], err = s.aesParty(p.Bool, conn, tr, lane, share, pts)
			return err
		})
		took := ms(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		n := s.counts().since(c0)

		if isMLP {
			want := plainMLP(&in.model, x)
			for party, got := range logits {
				for j := range want {
					e := math.Abs(got[j] - want[j])
					if e > mlpTolerance {
						return nil, fmt.Errorf("MLP request %d: party %d logit %d is %g, plaintext %g (bound %g)", i, party, j, got[j], want[j], mlpTolerance)
					}
					out.worstMLPError = math.Max(out.worstMLPError, e)
				}
				if tripleBytes[party] != [2]int64{mlpCost1, mlpCost2} {
					return nil, fmt.Errorf("MLP request %d: party %d matrix triples moved %v B, ArithMatTripleCost is [%d %d]", i, party, tripleBytes[party], mlpCost1, mlpCost2)
				}
			}
			if warm {
				continue
			}
			if err := sameCounts(&out.mlpN, n, len(out.mlp)); err != nil {
				return nil, fmt.Errorf("MLP request %d: %w", i, err)
			}
			out.mlp = append(out.mlp, took)
			continue
		}
		want := make([]byte, 16)
		for k := range pts {
			cipher.Encrypt(want, pts[k])
			for party := range cts {
				if got := ironman.BitsBytes(cts[party][k]); !bytes.Equal(got, want) {
					return nil, fmt.Errorf("AES request %d: party %d block %d is %x, crypto/aes gives %x", i, party, k, got, want)
				}
			}
		}
		for party, wire := range aesWire {
			if wire != aesCost {
				return nil, fmt.Errorf("AES request %d: party %d evaluation moved %d B, CircuitCost is %d", i, party, wire, aesCost)
			}
		}
		if warm {
			continue
		}
		if err := sameCounts(&out.aesN, n, len(out.aes)); err != nil {
			return nil, fmt.Errorf("AES request %d: %w", i, err)
		}
		out.aes = append(out.aes, took)
	}
	s.observe(nil)
	return out, nil
}

// sameCounts records a request kind's exact counts on its first
// request and requires every later one to repeat them.
func sameCounts(first *ppmlCounts, got ppmlCounts, done int) error {
	if done == 0 {
		*first = got
		return nil
	}
	if got != *first {
		return fmt.Errorf("counts %+v differ from the first request's %+v", got, *first)
	}
	return nil
}

// runPPML is the ppml workload. The seed draws the model, the key
// shares, and every request's input vector and plaintext blocks.
func runPPML(cfg config) (*run, error) {
	in := newPPMLInputs(cfg.seed)
	window := time.Duration(cfg.seconds) * time.Second
	out := newRun()

	var setups []float64
	var s *ppmlSession
	for i := 0; i < ppmlSetups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = newPPMLSession(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	if !cfg.trace {
		pass, err := s.measure(window, in, nil, nil)
		if err != nil {
			return nil, err
		}
		out.attempted = len(pass.mlp) + len(pass.aes)
		m, a := pass.mlpN, pass.aesN
		out.metrics["setup_s"] = median(setups)
		out.metrics["req_ms_p50"] = median(pass.mlp)
		out.metrics["req_ms_tail"] = quantile(pass.mlp, 0.9)
		out.metrics["req2_ms_p50"] = median(pass.aes)
		out.metrics["req2_ms_tail"] = quantile(pass.aes, 0.9)
		cotsDone := float64(m.cots*len(pass.mlp) + a.cots*len(pass.aes))
		out.metrics["cot_per_s"] = cotsDone / ((sum(pass.mlp) + sum(pass.aes)) / 1e3)
		out.metrics["wire_bytes_per_cot"] = float64(m.bytes+a.bytes) / float64(m.cots+a.cots)
		out.metrics["flights_per_req"] = float64(m.flights)
		out.report["mlp_requests"] = len(pass.mlp)
		out.report["aes_requests"] = len(pass.aes)
		out.report["setup_s_samples"] = setups
		out.report["mlp_ms_p50"] = median(pass.mlp)
		out.report["mlp_ms_p90"] = quantile(pass.mlp, 0.9)
		out.report["aes_ms_p50"] = median(pass.aes)
		out.report["aes_ms_p90"] = quantile(pass.aes, 0.9)
		out.report["mlp_worst_abs_error"] = pass.worstMLPError
		out.report["mlp_error_bound"] = mlpTolerance
		return out, nil
	}

	base, err := s.measure(window/2, in, nil, nil)
	if err != nil {
		return nil, err
	}
	trMLP, trAES := obs.NewTracer(), obs.NewTracer()
	pass, err := s.measure(window/2, in, trMLP, trAES)
	if err != nil {
		return nil, err
	}
	out.attempted = len(base.mlp) + len(base.aes) + len(pass.mlp) + len(pass.aes)
	tm := analyse(trMLP.Events(), laneA, laneB)
	ta := analyse(trAES.Events(), laneA, laneB)
	m, a := pass.mlpN, pass.aesN
	out.metrics["cot.deal_ms"] = sum(pass.dealMS) / float64(len(pass.dealMS))
	out.metrics["cot.cots_per_mlp"] = float64(m.cots)
	out.metrics["cot.cots_per_aes"] = float64(a.cots)
	for _, name := range []string{"arith.triple", "arith.matvec", "arith.a2b", "arith.b2a", "arith.open", "gmw.relu"} {
		out.metrics[name+"_ms"] = tm.perRequest(name)
	}
	out.metrics["gmw.exchange_ms_mlp"] = tm.perRequest("gmw.exchange")
	out.metrics["gmw.exchange_ms_aes"] = ta.perRequest("gmw.exchange")
	out.metrics["gmw.exchanges_per_mlp"] = float64(m.exchanges)
	out.metrics["gmw.exchanges_per_aes"] = float64(a.exchanges)
	out.metrics["gmw.and_per_s"] = float64(a.ands*len(base.aes)) / (sum(base.aes) / 1e3)
	out.metrics["circuit.eval_ms"] = ta.incl["circuit.eval"] / float64(ta.roots)
	out.metrics["circuit.level_ms"] = ta.perRequest("circuit.level")
	out.metrics["circuit.reveal_ms"] = ta.perRequest("circuit.reveal")
	out.metrics["transport.bytes_per_mlp"] = float64(m.bytes)
	out.metrics["transport.bytes_per_aes"] = float64(a.bytes)
	out.metrics["transport.flights_per_mlp"] = float64(m.flights)
	out.metrics["transport.flights_per_aes"] = float64(a.flights)
	out.metrics["trace.coverage"] = coverage(tm, ta)
	out.metrics["trace.overhead_ms"] = median(pass.mlp) - median(base.mlp)
	out.report["self_ms_per_mlp"] = perRequestAll(tm)
	out.report["self_ms_per_aes"] = perRequestAll(ta)
	out.report["aes_trace_overhead_ms"] = median(pass.aes) - median(base.aes)
	return out, nil
}
