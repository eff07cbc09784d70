package main

import (
	"errors"
	"fmt"
	"time"

	"ironman"
	"ironman/internal/extension"
	"ironman/internal/ferret"
	"ironman/internal/obs"
)

// cotSetups is how many endpoint pairs a cot-stream run sets up; setup_s
// is the median, since base-OT setup time varies run to run.
const cotSetups = 5

// cotPair is a networked Ferret sender/receiver pair over an in-process
// pipe, each endpoint driven by its own goroutine per request.
type cotPair struct {
	s            *ironman.Sender
	r            *ironman.Receiver
	connS, connR ironman.Conn
	delta        ironman.Block
	trace        *obs.Tracer
}

// newCOTPair runs the real base-OT and Ferret setup on both endpoints.
func newCOTPair(params ironman.Params, opts ironman.Options) (*cotPair, time.Duration, error) {
	delta, err := ironman.RandomDelta()
	if err != nil {
		return nil, 0, err
	}
	p := &cotPair{delta: delta, trace: opts.Trace}
	p.connS, p.connR = ironman.Pipe()
	var errS error
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		if p.s, errS = ironman.NewSender(p.connS, delta, params, opts); errS != nil {
			_ = p.connS.Close() // unblock the peer
		}
	}()
	var errR error
	if p.r, errR = ironman.NewReceiver(p.connR, params, opts); errR != nil {
		_ = p.connR.Close()
	}
	<-done
	took := time.Since(start)
	if err := errors.Join(errS, errR); err != nil {
		p.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return p, took, nil
}

func (p *cotPair) close() {
	_ = p.connS.Close()
	_ = p.connR.Close()
	if p.s != nil {
		_ = p.s.Close()
	}
	if p.r != nil {
		_ = p.r.Close()
	}
}

// cotDraw is one request's outputs and each endpoint's latency, both
// measured from the common start.
type cotDraw struct {
	z, y         []ironman.Block
	bits         []bool
	sender, recv time.Duration
}

// draw has both endpoints draw n correlations concurrently.
func (p *cotPair) draw(n int) (cotDraw, error) {
	var d cotDraw
	var errS error
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		root := p.trace.Span(rootSpan, "bench", ferret.SenderTID)
		sp := p.trace.Span("pool.cots", "bench", ferret.SenderTID)
		d.z, errS = p.s.COTs(n)
		sp.End()
		root.End()
		d.sender = time.Since(start)
		if errS != nil {
			_ = p.connS.Close()
		}
	}()
	root := p.trace.Span(rootSpan, "bench", ferret.ReceiverTID)
	sp := p.trace.Span("pool.cots", "bench", ferret.ReceiverTID)
	bits, y, errR := p.r.COTs(n)
	sp.End()
	root.End()
	d.recv = time.Since(start)
	if errR != nil {
		_ = p.connR.Close()
	}
	<-done
	d.bits, d.y = bits, y
	return d, errors.Join(errS, errR)
}

// cotPass is one measured pass's samples and per-request counters.
type cotPass struct {
	sender, recv, both []float64 // ms
	msgs               int
	blockedMS          float64
	refills            uint64
}

// measure draws one batch per request for d, verifying every draw and
// gating the transcript against the backend's exact Cost model.
//
// One verified Extend runs first, untimed and ungated: setup ends with
// a receiver send and Extend opens with one, so transport.Stats counts
// the two as one flight and the first Extend reads Cost.Rounds-1.
func (p *cotPair) measure(d time.Duration, batch int, cost extension.Cost) (*cotPass, error) {
	out := &cotPass{}
	warm, err := p.draw(batch)
	if err != nil {
		return nil, fmt.Errorf("warm-up extend: %w", err)
	}
	if err := ironman.VerifyCOTs(p.delta, warm.z, warm.bits, warm.y); err != nil {
		return nil, fmt.Errorf("warm-up extend: COT relation: %w", err)
	}
	ps0, pr0 := p.s.PoolStats(), p.r.PoolStats()
	start := time.Now()
	for time.Since(start) < d || len(out.both) == 0 {
		s0, r0 := p.connS.Stats(), p.connR.Stats()
		got, err := p.draw(batch)
		if err != nil {
			return nil, fmt.Errorf("extend %d: %w", len(out.both), err)
		}
		s1, r1 := p.connS.Stats(), p.connR.Stats()
		if len(got.z) != batch || len(got.y) != batch || len(got.bits) != batch {
			return nil, fmt.Errorf("extend %d: drew %d/%d correlations, want %d", len(out.both), len(got.z), len(got.y), batch)
		}
		if err := ironman.VerifyCOTs(p.delta, got.z, got.bits, got.y); err != nil {
			return nil, fmt.Errorf("extend %d: COT relation: %w", len(out.both), err)
		}
		if bytes := s1.TotalBytes() - s0.TotalBytes(); bytes != cost.ExtendBytes {
			return nil, fmt.Errorf("extend %d moved %d B, Cost.ExtendBytes is %d", len(out.both), bytes, cost.ExtendBytes)
		}
		if fl := s1.Flights - s0.Flights + r1.Flights - r0.Flights; fl != cost.Rounds {
			return nil, fmt.Errorf("extend %d took %d flights, Cost.Rounds is %d", len(out.both), fl, cost.Rounds)
		}
		out.msgs += s1.MsgsSent - s0.MsgsSent + s1.MsgsReceived - s0.MsgsReceived
		out.sender = append(out.sender, ms(got.sender))
		out.recv = append(out.recv, ms(got.recv))
		out.both = append(out.both, ms(max(got.sender, got.recv)))
	}
	ps1, pr1 := p.s.PoolStats(), p.r.PoolStats()
	out.blockedMS = ms(ps1.BlockedTime - ps0.BlockedTime + pr1.BlockedTime - pr0.BlockedTime)
	out.refills = ps1.Refills - ps0.Refills + pr1.Refills - pr0.Refills
	return out, nil
}

// runCOTStream is the cot-stream workload. Its seed shapes nothing: a
// request is always one full batch, and Δ and all protocol randomness
// come from crypto/rand.
func runCOTStream(cfg config) (*run, error) {
	params, err := ironman.ParamsByName("2^20")
	if err != nil {
		return nil, err
	}
	opts := ironman.DefaultOptions()
	b, err := extension.ByName(extension.Default)
	if err != nil {
		return nil, err
	}
	batch := b.Batch(params)
	cost := b.Cost(params, extension.Options{BinaryAES: !opts.FourAryChaCha})
	window := time.Duration(cfg.seconds) * time.Second
	out := newRun()

	if !cfg.trace {
		var setups []float64
		var pair *cotPair
		for i := 0; i < cotSetups; i++ {
			if pair != nil {
				pair.close()
			}
			var took time.Duration
			if pair, took, err = newCOTPair(params, opts); err != nil {
				return nil, err
			}
			setups = append(setups, took.Seconds())
		}
		defer pair.close()
		pass, err := pair.measure(window, batch, cost)
		if err != nil {
			return nil, err
		}
		n := len(pass.both)
		out.attempted = n
		cotPerS := float64(batch*n) / (sum(pass.both) / 1e3)
		bytesPerCOT := float64(cost.ExtendBytes) / float64(batch)
		out.metrics["setup_s"] = median(setups)
		out.metrics["req_ms_p50"] = median(pass.sender)
		out.metrics["req_ms_tail"] = quantile(pass.sender, 0.9)
		out.metrics["req2_ms_p50"] = median(pass.recv)
		out.metrics["req2_ms_tail"] = quantile(pass.recv, 0.9)
		out.metrics["cot_per_s"] = cotPerS
		out.metrics["wire_bytes_per_cot"] = bytesPerCOT
		out.metrics["flights_per_req"] = float64(cost.Rounds)
		out.report["extends"] = n
		out.report["batch"] = batch
		out.report["setup_s_samples"] = setups
		out.report["extend_ms_p50"] = median(pass.both)
		out.report["extend_ms_p90"] = quantile(pass.both, 0.9)
		out.report["cot_per_s"] = cotPerS
		out.report["wire_bytes_per_cot"] = bytesPerCOT
		out.report["flights_per_extend"] = cost.Rounds
		out.report["model_extend_bytes"] = cost.ExtendBytes
		return out, nil
	}

	// Traced run: an untraced pass, then the same length on a pair
	// whose endpoints record the Ferret Extend phase spans.
	plain, _, err := newCOTPair(params, opts)
	if err != nil {
		return nil, err
	}
	base, err := plain.measure(window/2, batch, cost)
	plain.close()
	if err != nil {
		return nil, err
	}
	topts := opts
	topts.Trace = obs.NewTracer()
	traced, _, err := newCOTPair(params, topts)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	pass, err := traced.measure(window/2, batch, cost)
	if err != nil {
		return nil, err
	}
	n := len(pass.both)
	out.attempted = len(base.both) + n
	t := analyse(topts.Trace.Events(), ferret.SenderTID, ferret.ReceiverTID)
	for _, phase := range []string{"spcot.expand", "spcot.flights", "spcot.reconstruct", "lpn.encode", "lpn.noise"} {
		out.metrics[phase+"_ms"] = t.perRequest(phase)
	}
	out.metrics["ferret.extend_ms"] = t.incl["extend"] / float64(t.roots)
	out.metrics["transport.msgs_per_extend"] = float64(pass.msgs) / float64(n)
	out.metrics["transport.bytes_per_extend"] = float64(cost.ExtendBytes)
	out.metrics["pool.blocked_ms_per_draw"] = pass.blockedMS / float64(2*n)
	out.metrics["pool.refills_per_draw"] = float64(pass.refills) / float64(2*n)
	out.metrics["trace.coverage"] = coverage(t)
	out.metrics["trace.overhead_ms"] = median(pass.sender) - median(base.sender)
	out.report["extends_untraced"] = len(base.both)
	out.report["extends_traced"] = n
	out.report["self_ms_per_extend"] = perRequestAll(t)
	return out, nil
}
