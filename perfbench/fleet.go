package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ironman"
	"ironman/internal/otserv"
	"ironman/internal/otserv/router"
	"ironman/internal/otserv/wire"
	"ironman/internal/transport"
)

// The fleet shape: otd's shipping defaults on every shard, sessions of
// fleetDrawPairs seeded sender+receiver draw pairs.
const (
	fleetShards    = 2
	fleetClients   = 2
	fleetDrawPairs = 8
	fleetTenants   = 4
	fleetSetups    = 15
	fleetMinDraw   = 1 << 14
	fleetMaxDraw   = 1 << 16
)

// fleetRate is the offered session arrival rate: about half the
// highest rate that held without a growing backlog on the reference
// host (see README.md).
const fleetRate = 0.6

// fleet is two otserv shards behind a router, all on loopback TCP, and
// the client connections the load generator drives them through.
type fleet struct {
	servers []*otserv.Server
	rt      *router.Router
	conns   []transport.Conn
	clients []*otserv.Client
	probe   *serviceProbe // nil unless traced
	serving sync.WaitGroup
}

// startFleet boots the shards and the router and connects the clients;
// it returns once a STATS round trip has crossed the router to every
// shard. A non-nil probe wraps each shard's listener.
func startFleet(probe *serviceProbe) (*fleet, error) {
	f := &fleet{probe: probe}
	var addrs []string
	for i := 0; i < fleetShards; i++ {
		srv := otserv.NewServer(otserv.Config{
			DefaultParams: "2^20",
			Depth:         2,
			MaxDepth:      8,
			MaxSessions:   64,
			ShardID:       uint64(i + 1),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("shard listen: %w", err)
		}
		f.servers = append(f.servers, srv)
		addrs = append(addrs, ln.Addr().String())
		var served net.Listener = ln
		if probe != nil {
			served = probe.wrap(ln)
		}
		f.serving.Add(1)
		go func() { defer f.serving.Done(); _ = srv.Serve(served) }()
	}
	f.rt = router.New(router.Config{Shards: addrs})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("router listen: %w", err)
	}
	f.serving.Add(1)
	go func() { defer f.serving.Done(); _ = f.rt.Serve(rln) }()
	for i := 0; i < fleetClients; i++ {
		nc, err := net.Dial("tcp", rln.Addr().String())
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dial router: %w", err)
		}
		conn := transport.NewTCP(nc)
		f.conns = append(f.conns, conn)
		f.clients = append(f.clients, otserv.NewClient(conn))
	}
	dump, err := f.clients[0].ServerStats()
	if err != nil {
		f.close()
		return nil, fmt.Errorf("fleet stats: %w", err)
	}
	if dump.MaxSessions != fleetShards*64 {
		f.close()
		return nil, fmt.Errorf("fleet answers for %d session slots, want %d shards of 64", dump.MaxSessions, fleetShards)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, c := range f.clients {
		_ = c.Close()
	}
	if f.rt != nil {
		_ = f.rt.Close()
	}
	for _, srv := range f.servers {
		_ = srv.Close()
	}
	f.serving.Wait()
}

// counter sums one registry counter across the shards.
func (f *fleet) counter(name string) float64 {
	total := 0.0
	for _, srv := range f.servers {
		total += float64(srv.Registry().Counter(name).Value())
	}
	return total
}

// sessionPlan is one session's seeded inputs.
type sessionPlan struct {
	tenant string
	sizes  [fleetDrawPairs]int
}

func planSession(seed int64, i int) sessionPlan {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
	p := sessionPlan{tenant: fmt.Sprintf("tenant-%d", rng.IntN(fleetTenants))}
	for j := range p.sizes {
		p.sizes[j] = fleetMinDraw + rng.IntN(fleetMaxDraw-fleetMinDraw+1)
	}
	return p
}

// fleetPass is one load pass's samples.
type fleetPass struct {
	mu                 sync.Mutex
	hello, draw        []float64 // ms, HELLO from its due time
	helloCalls         float64   // ms inside NewSession, summed
	late               []float64 // ms the generator started sessions late
	backlogMax         int
	attempted, failed  int
	sessions           int
	cots               int
	wireBytes, payload int64 // over measured sessions
	flights, measured  int
	draws              map[uint64][]float64 // traced: client draw ms by session, in order
	refills            uint64
	blockedNS          int64
	poolDraws          uint64
}

// load offers sessions at rate for d: session i is due at i/rate, two
// workers (one per client connection) start each due session as soon
// as they are free, and requests are timed from when they were due.
// Every draw pair is verified; a wrong correlation ends the pass.
func (f *fleet) load(d time.Duration, rate float64, seed int64) (*fleetPass, error) {
	out := &fleetPass{}
	if f.probe != nil {
		out.draws = map[uint64][]float64{}
	}
	var next atomic.Int64
	var started atomic.Int64
	start := time.Now()
	errs := make([]error, len(f.clients))
	var wg sync.WaitGroup
	for w := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if due.Sub(start) >= d {
					return
				}
				time.Sleep(time.Until(due))
				now := time.Now()
				backlog := int(float64(now.Sub(start))/float64(time.Second)*rate) + 1 - int(started.Add(1)-1)
				out.mu.Lock()
				out.late = append(out.late, ms(now.Sub(due)))
				out.backlogMax = max(out.backlogMax, backlog)
				out.mu.Unlock()
				if err := f.session(w, due, planSession(seed, i), out); err != nil {
					errs[w] = fmt.Errorf("session %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// session runs one session on client w: HELLO, the draw pairs, CLOSE.
// Typed refusals count as failed operations; anything that returns
// wrong correlations is an error.
func (f *fleet) session(w int, due time.Time, plan sessionPlan, out *fleetPass) error {
	conn := f.conns[w]
	st0 := conn.Stats()
	called := time.Now()
	sess, err := f.clients[w].NewSession(otserv.SessionConfig{Tenant: plan.tenant})
	out.mu.Lock()
	out.attempted++
	if err != nil {
		out.failed++
		out.mu.Unlock()
		return nil
	}
	out.hello = append(out.hello, ms(time.Since(due)))
	out.helloCalls += ms(time.Since(called))
	out.mu.Unlock()
	delta, _ := sess.Delta()
	drawsFrom := conn.Stats()

	var draws []float64
	var payload int64
	failed, cots := 0, 0
	for _, n := range plan.sizes {
		t0 := time.Now()
		z, errS := sess.SenderCOTs(n)
		t1 := time.Now()
		bits, y, errR := sess.ReceiverCOTs(n)
		t2 := time.Now()
		if errS != nil || errR != nil {
			failed += btoi(errS != nil) + btoi(errR != nil)
			continue
		}
		draws = append(draws, ms(t1.Sub(t0)), ms(t2.Sub(t1)))
		if err := ironman.VerifyCOTs(delta, z, bits, y); err != nil {
			return fmt.Errorf("draw pair of %d: COT relation: %w", n, err)
		}
		cots += 2 * n
		payload += int64(2*16*n + (n+7)/8)
	}
	drawsTo := conn.Stats()
	if f.probe != nil {
		st, err := sess.Stats()
		if err != nil {
			return fmt.Errorf("session stats: %w", err)
		}
		out.mu.Lock()
		out.refills += st.Sender.Refills
		out.blockedNS += st.Sender.BlockedNS + st.Receiver.BlockedNS
		out.poolDraws += st.Sender.Draws + st.Receiver.Draws
		out.draws[sess.ID()] = draws
		out.mu.Unlock()
	}
	errC := sess.Close()
	st1 := conn.Stats()

	out.mu.Lock()
	defer out.mu.Unlock()
	out.attempted += 2*fleetDrawPairs + 1
	out.failed += failed + btoi(errC != nil)
	out.sessions++
	out.draw = append(out.draw, draws...)
	out.cots += cots
	if failed == 0 {
		out.wireBytes += drawsTo.TotalBytes() - drawsFrom.TotalBytes()
		out.payload += payload
		out.flights += st1.Flights - st0.Flights
		out.measured++
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runFleet is the fleet workload. The seed draws each session's tenant
// and draw sizes.
func runFleet(cfg config) (*run, error) {
	window := time.Duration(cfg.seconds) * time.Second
	out := newRun()
	if !cfg.trace {
		var setups []float64
		var f *fleet
		for i := 0; i < fleetSetups; i++ {
			if f != nil {
				f.close()
			}
			t0 := time.Now()
			var err error
			if f, err = startFleet(nil); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		defer f.close()
		pass, err := f.load(window, cfg.rate, cfg.seed)
		if err != nil {
			return nil, err
		}
		if pass.sessions == 0 {
			return nil, errors.New("no session completed")
		}
		out.attempted, out.failed = pass.attempted, pass.failed
		out.metrics["setup_s"] = median(setups)
		out.metrics["req_ms_p50"] = median(pass.draw)
		out.metrics["req_ms_tail"] = quantile(pass.draw, 0.95)
		out.metrics["req2_ms_p50"] = median(pass.hello)
		out.metrics["req2_ms_tail"] = quantile(pass.hello, 0.9)
		out.metrics["cot_per_s"] = float64(pass.cots) / (sum(pass.draw) / 1e3)
		out.metrics["wire_bytes_per_cot"] = float64(pass.wireBytes) / float64(pass.cots)
		out.metrics["flights_per_req"] = float64(pass.flights) / float64(pass.measured)
		out.report["sessions"] = pass.sessions
		out.report["draws"] = len(pass.draw)
		out.report["setup_s_samples"] = setups
		out.report["draw_ms_p50"] = median(pass.draw)
		out.report["draw_ms_p90"] = quantile(pass.draw, 0.9)
		out.report["draw_ms_p95"] = quantile(pass.draw, 0.95)
		out.report["draw_ms_p99"] = quantile(pass.draw, 0.99)
		out.report["hello_ms_p50"] = median(pass.hello)
		out.report["hello_ms_p90"] = quantile(pass.hello, 0.9)
		out.report["hello_ms_samples"] = pass.hello
		out.report["late_ms_max"] = quantile(pass.late, 1)
		out.report["backlog_max"] = pass.backlogMax
		out.report["error_rate"] = float64(pass.failed) / float64(pass.attempted)
		return out, nil
	}

	plain, err := startFleet(nil)
	if err != nil {
		return nil, err
	}
	base, err := plain.load(window/2, cfg.rate, cfg.seed)
	plain.close()
	if err != nil {
		return nil, err
	}
	probe := &serviceProbe{}
	f, err := startFleet(probe)
	if err != nil {
		return nil, err
	}
	pass, err := f.load(window/2, cfg.rate, cfg.seed)
	if err != nil {
		f.close()
		return nil, err
	}
	if pass.sessions == 0 || base.sessions == 0 {
		f.close()
		return nil, errors.New("no session completed")
	}
	rt := f.rt.Registry()
	placements := float64(rt.Counter("ironman_router_placements_total").Value())
	retries := float64(rt.Counter("ironman_router_placement_retries_total").Value())
	opened := f.counter("ironman_otserv_sessions_opened_total")
	expired := f.counter("ironman_otserv_sessions_expired_total")
	quota := f.counter("ironman_otserv_quota_sheds_total")
	dry := f.counter("ironman_otserv_dry_sheds_total")
	f.close() // the probe's last samples commit when its conns close

	hello, draws, hop := probe.attribute(pass.draws)
	out.attempted = base.attempted + pass.attempted
	out.failed = base.failed + pass.failed
	out.metrics["router.hop_ms_p50"] = median(hop)
	out.metrics["router.placements"] = placements
	out.metrics["router.retries"] = retries
	out.metrics["otserv.hello_service_ms_p50"] = median(hello)
	out.metrics["otserv.hello_service_ms_p90"] = quantile(hello, 0.9)
	out.metrics["otserv.draw_service_ms_p50"] = median(draws)
	out.metrics["otserv.draw_service_ms_p90"] = quantile(draws, 0.9)
	out.metrics["pool.refills_per_session"] = float64(pass.refills) / float64(pass.sessions)
	out.metrics["pool.blocked_ms_per_draw"] = float64(pass.blockedNS) / 1e6 / float64(pass.poolDraws)
	out.metrics["session.opened"] = opened
	out.metrics["session.expired"] = expired
	out.metrics["session.quota_sheds"] = quota
	out.metrics["session.dry_sheds"] = dry
	out.metrics["transport.bytes_per_draw"] = float64(pass.wireBytes) / float64(2*fleetDrawPairs*pass.measured)
	out.metrics["wire.overhead_bytes_per_draw"] = float64(pass.wireBytes-pass.payload) / float64(2*fleetDrawPairs*pass.measured)
	out.metrics["loadgen.late_ms_max"] = quantile(pass.late, 1)
	out.metrics["loadgen.backlog_max"] = float64(pass.backlogMax)
	out.metrics["trace.coverage"] = (sum(hello) + sum(draws)) / (pass.helloCalls + sum(pass.draw))
	out.metrics["trace.overhead_ms"] = median(pass.draw) - median(base.draw)
	out.report["sessions_untraced"] = base.sessions
	out.report["sessions_traced"] = pass.sessions
	out.report["hello_trace_overhead_ms"] = median(pass.hello) - median(base.hello)
	return out, nil
}

// serviceProbe wraps shard listeners to time each request from the
// shard's side: from the arrival of its frame to the last write of the
// response. Router hop time is the client-observed time minus this.
type serviceProbe struct {
	mu      sync.Mutex
	samples []serviceSample
}

type serviceSample struct {
	op      byte
	session uint64
	dur     time.Duration
}

func (p *serviceProbe) wrap(ln net.Listener) net.Listener { return probeListener{ln, p} }

type probeListener struct {
	net.Listener
	p *serviceProbe
}

func (l probeListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &probeConn{Conn: nc, p: l.p}, nil
}

// probeConn parses the length-prefixed request frames a shard reads
// (one request in flight per connection) and closes each request's
// sample at its response's last write. mu guards the parse state:
// the shard closes connections from another goroutine.
type probeConn struct {
	net.Conn
	p       *serviceProbe
	mu      sync.Mutex
	buf     []byte
	pending *serviceSample
	arrived time.Time
	wrote   time.Time
}

func (c *probeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > 0 {
		if len(c.buf) == 0 {
			c.commit()
			c.arrived = time.Now()
		}
		c.buf = append(c.buf, b[:n]...)
		if len(c.buf) >= 4 {
			size := int(binary.LittleEndian.Uint32(c.buf))
			if len(c.buf) >= 4+size {
				s := &serviceSample{}
				if size > 0 {
					s.op = c.buf[4]
				}
				if size >= 9 {
					s.session = binary.LittleEndian.Uint64(c.buf[5:])
				}
				c.pending = s
				c.buf = c.buf[4+size:]
			}
		}
	}
	return n, err
}

func (c *probeConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.mu.Lock()
	c.wrote = time.Now()
	c.mu.Unlock()
	return n, err
}

func (c *probeConn) Close() error {
	c.mu.Lock()
	c.commit()
	c.mu.Unlock()
	return c.Conn.Close()
}

// commit records the answered request, if any. The caller holds c.mu.
func (c *probeConn) commit() {
	if c.pending == nil || c.wrote.Before(c.arrived) {
		return
	}
	c.pending.dur = c.wrote.Sub(c.arrived)
	c.p.mu.Lock()
	c.p.samples = append(c.p.samples, *c.pending)
	c.p.mu.Unlock()
	c.pending = nil
}

// attribute splits the shard-side samples by operation and pairs each
// draw with the client's observation of it (same session, same order)
// to give the router hop.
func (p *serviceProbe) attribute(client map[uint64][]float64) (hello, draws, hop []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := map[uint64]int{}
	for _, s := range p.samples {
		d := ms(s.dur)
		switch s.op {
		case wire.OpHello:
			hello = append(hello, d)
		case wire.OpDrawS, wire.OpDrawR:
			draws = append(draws, d)
			observed := client[s.session]
			if k := seen[s.session]; k < len(observed) {
				hop = append(hop, observed[k]-d)
			}
			seen[s.session]++
		}
	}
	return hello, draws, hop
}
