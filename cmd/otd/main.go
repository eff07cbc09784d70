// Command otd is the OT dispenser daemon: it serves correlated-OT
// streams to many concurrent client sessions, generating correlations
// ahead of demand with per-session prefetching pools.
//
//	otd -listen :7117 -params 2^20 -prefetch 2 -max-sessions 64
//
// A fleet runs N otd shards plus one otd router in front:
//
//	otd -listen :7601 -shard-id 1 &
//	otd -listen :7602 -shard-id 2 &
//	otd -listen :7603 -shard-id 3 &
//	otd -route -listen :7600 -shards 127.0.0.1:7601,127.0.0.1:7602,127.0.0.1:7603
//
// Clients open sessions with internal/otserv.Client against either a
// standalone daemon or the router — the protocol is identical. Query a
// running daemon's counters with:
//
//	otd -stats -connect host:7117
//
// An opt-in admin listener serves Prometheus metrics, a JSON session
// dump, and pprof profiles (keep it on loopback or a scrape network):
//
//	otd -listen :7117 -admin 127.0.0.1:9090
//
// In router mode the admin listener serves the fleet surface instead
// (/metrics /healthz /shards /shards/add /shards/drain).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ironman/internal/otserv"
	"ironman/internal/otserv/router"
	"ironman/internal/otserv/wire"
)

func main() {
	listen := flag.String("listen", ":7117", "address to serve on")
	params := flag.String("params", "2^20", "default parameter set for sessions: a Table 4 name, or tiny/small (CI scale)")
	prefetch := flag.Int("prefetch", 2, "default per-session prefetch depth (Extend batches)")
	maxDepth := flag.Int("max-depth", 8, "cap on client-requested prefetch depth")
	maxSessions := flag.Int("max-sessions", 64, "concurrent session limit")
	shardID := flag.Uint64("shard-id", 0, "fleet shard id stamped into session ids (0 = standalone)")
	lease := flag.Duration("lease", 0, "default session lease for orphaned sessions (0 = server default)")
	route := flag.Bool("route", false, "run as the fleet router instead of a dispenser shard")
	shards := flag.String("shards", "", "router mode: comma-separated shard addresses")
	drainWait := flag.Duration("drain", 10*time.Second, "graceful shutdown budget on SIGTERM before forcing connections closed")
	stats := flag.Bool("stats", false, "dump a running daemon's stats and exit")
	connect := flag.String("connect", "", "daemon address for -stats")
	admin := flag.String("admin", "", "admin HTTP address for /metrics, /healthz, /sessions, pprof (e.g. 127.0.0.1:9090)")
	flag.Parse()

	if *stats {
		if *connect == "" {
			log.Fatal("-stats needs -connect host:port")
		}
		dumpStats(*connect)
		return
	}
	if *route {
		runRouter(*listen, *shards, *admin)
		return
	}

	// Validate the shard id at startup: session ids carry it in their
	// top bits, so an id that does not fit would alias another shard.
	if *shardID > wire.MaxShardID {
		log.Fatalf("otd: -shard-id: %d is above the largest shard id %d", *shardID, wire.MaxShardID)
	}

	srv := otserv.NewServer(otserv.Config{
		DefaultParams: *params,
		Depth:         *prefetch,
		MaxDepth:      *maxDepth,
		MaxSessions:   *maxSessions,
		ShardID:       *shardID,
		Lease:         *lease,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("otd: dispensing on %s (shard %d, params %s, prefetch %d, max %d sessions)",
		ln.Addr(), *shardID, *params, *prefetch, *maxSessions)

	if *admin != "" {
		aln, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("otd: admin endpoint on http://%s (/metrics /healthz /sessions /drain /debug/pprof)", aln.Addr())
		go func() {
			if err := http.Serve(aln, srv.AdminHandler()); err != nil {
				log.Printf("otd: admin listener: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		// Drain first: stop accepting, let in-flight requests finish,
		// tear sessions down in order, then exit. A second signal (or
		// the drain budget running out) forces the remaining
		// connections closed.
		log.Printf("otd: draining (budget %s)", *drainWait)
		if err := srv.Shutdown(*drainWait); err != nil {
			log.Printf("otd: shutdown: %v", err)
		}
		os.Exit(0)
	}()
	if err := srv.Serve(ln); err != nil {
		log.Fatal(err)
	}
}

// runRouter serves the fleet-router mode of otd.
func runRouter(listen, shardCSV, admin string) {
	var addrs []string
	for _, a := range strings.Split(shardCSV, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("otd: -route needs -shards host:port,host:port,...")
	}
	r := router.New(router.Config{Shards: addrs})
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("otd: routing on %s across %d shards (%s)", ln.Addr(), len(addrs), strings.Join(addrs, ","))

	if admin != "" {
		aln, err := net.Listen("tcp", admin)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("otd: router admin on http://%s (/metrics /healthz /shards)", aln.Addr())
		go func() {
			if err := http.Serve(aln, r.AdminHandler()); err != nil {
				log.Printf("otd: admin listener: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("otd: router shutting down")
		if err := r.Close(); err != nil {
			log.Printf("otd: close: %v", err)
		}
		os.Exit(0)
	}()
	if err := r.Serve(ln); err != nil {
		log.Fatal(err)
	}
}

func dumpStats(addr string) {
	c, err := otserv.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			log.Printf("otd: close: %v", err)
		}
	}()
	dump, err := c.ServerStats()
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}
