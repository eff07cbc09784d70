package experiments

import (
	"fmt"
	"net"
	"strings"
	"time"

	"ironman/internal/otserv"
	"ironman/internal/otserv/loadgen"
	"ironman/internal/otserv/router"
)

// FleetResult is the dispenser-fleet load benchmark: a 3-shard otd
// fleet behind the consistent-hash router, driven over real loopback
// TCP by the otload generator. It is the serving-layer counterpart of
// the protocol benches — what a tenant actually observes when the
// dispenser is a shared multi-tenant service rather than a library.
type FleetResult struct {
	Shards int             `json:"shards"`
	Report *loadgen.Report `json:"report"`
}

// FleetBench boots a 3-shard fleet plus router in-process (each shard
// a full otserv.Server on its own TCP listener) and measures it with
// the load generator: 1024 concurrent sessions over 64 connections
// (Quick: 96 over 12), alternating sender/receiver draws.
func FleetBench(o Options) FleetResult {
	const shards = 3
	var (
		servers []*otserv.Server
		addrs   []string
	)
	for i := 0; i < shards; i++ {
		srv := otserv.NewServer(otserv.Config{
			DefaultParams: "tiny",
			MaxSessions:   2048,
			ShardID:       uint64(i + 1),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("fleet bench: shard listen: %v", err))
		}
		go func() { _ = srv.Serve(ln) }()
		servers = append(servers, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	rt := router.New(router.Config{Shards: addrs})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("fleet bench: router listen: %v", err))
	}
	go func() { _ = rt.Serve(rln) }()
	defer func() {
		_ = rt.Close()
		for _, srv := range servers {
			_ = srv.Close()
		}
	}()

	cfg := loadgen.Config{
		Addr:            rln.Addr().String(),
		Sessions:        1024,
		Conns:           64,
		DrawsPerSession: 8,
		DrawN:           128,
		Depth:           128,
		Tenants:         8,
		Timeout:         5 * time.Minute,
	}
	if o.Quick {
		cfg.Sessions, cfg.Conns, cfg.DrawsPerSession = 96, 12, 4
	}
	rep, err := loadgen.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("fleet bench: %v", err))
	}
	return FleetResult{Shards: shards, Report: rep}
}

// RenderFleet formats the fleet benchmark for terminal output.
func RenderFleet(res FleetResult) string {
	var b strings.Builder
	r := res.Report
	fmt.Fprintf(&b, "Dispenser fleet: %d shards, %d sessions over %d conns (%d draws x %d COTs each)\n",
		res.Shards, r.Sessions, r.Conns, r.DrawsPerSession, r.DrawN)
	fmt.Fprintf(&b, "  opened %d  failed %d  draws %d  (%.0f draws/s, %d ms total)\n",
		r.SessionsOpened, r.SessionsFailed, r.Draws, r.DrawsPerSec, r.DurationMS)
	fmt.Fprintf(&b, "  draw latency  p50 %s  p95 %s  p99 %s  max %s\n",
		us(r.DrawLatency.P50), us(r.DrawLatency.P95), us(r.DrawLatency.P99), us(r.DrawLatency.Max))
	fmt.Fprintf(&b, "  hello latency p50 %s  p95 %s  p99 %s\n",
		us(r.HelloLatency.P50), us(r.HelloLatency.P95), us(r.HelloLatency.P99))
	fmt.Fprintf(&b, "  sheds: quota %d  dry %d  lease %d  other %d\n",
		r.QuotaSheds, r.DrySheds, r.LeaseErrors, r.OtherErrors)
	for _, s := range r.PerShard {
		fmt.Fprintf(&b, "  shard %d: %4d sessions  %5d draws\n", s.Shard, s.Sessions, s.Draws)
	}
	fmt.Fprintf(&b, "  balance max/even = %.3f (fleet bar: <= 2)\n", r.BalanceMaxOverEven)
	return b.String()
}

func us(v int64) string {
	return time.Duration(v * int64(time.Microsecond)).Round(10 * time.Microsecond).String()
}
