// Command perfbench is the repository benchmark: three workloads that
// drive the real protocol, engine and serving code end to end, check
// every output, and print their metrics by name and unit.
//
//	bash perfbench/run.sh --workload cot-stream --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for the metric table):
//
//   - cot-stream: a networked Ferret sender/receiver pair on the 2^20
//     parameter set drawing one Extend batch per request, closed loop.
//   - ppml: a two-party arith/GMW session alternating a 64-64-10
//     fixed-point MLP inference and a 4-instance AES-128 circuit
//     evaluation, closed loop, correlations dealt before each request.
//   - fleet: two otserv shards behind the router on loopback TCP,
//     sessions arriving open loop at a fixed rate over two client
//     connections.
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer breakdown, measured in a
// traced pass that follows an untraced pass of the same length. The
// line before it is a report with provenance and sample counts. Any
// wrong output or exact-count mismatch exits non-zero with no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd and perLayer are every metric the benchmark prints, with
// its unit. Every workload prints the end-to-end set with --trace 0 and
// the per-layer set with --trace 1; BENCHMARK.json lists the same
// names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb_p50", "MB"},
	{"req_ms_p50", "ms"},
	{"req_ms_tail", "ms"},
	{"req2_ms_p50", "ms"},
	{"req2_ms_tail", "ms"},
	{"cot_per_s", "1/s"},
	{"wire_bytes_per_cot", "B"},
	{"flights_per_req", "count"},
}

var perLayer = []metricDef{
	// cot-stream: Ferret Extend phases (ferret/mpcot/lpn trace spans).
	{"ferret.extend_ms", "ms"},
	{"spcot.expand_ms", "ms"},
	{"spcot.flights_ms", "ms"},
	{"spcot.reconstruct_ms", "ms"},
	{"lpn.encode_ms", "ms"},
	{"lpn.noise_ms", "ms"},
	{"transport.msgs_per_extend", "count"},
	{"transport.bytes_per_extend", "B"},
	// pool: cot-stream endpoint pools and fleet session pools.
	{"pool.blocked_ms_per_draw", "ms"},
	{"pool.refills_per_draw", "count"},
	// ppml: dealing, arith, gmw, circuit.
	{"cot.deal_ms", "ms"},
	{"cot.cots_per_mlp", "count"},
	{"cot.cots_per_aes", "count"},
	{"arith.triple_ms", "ms"},
	{"arith.matvec_ms", "ms"},
	{"arith.a2b_ms", "ms"},
	{"arith.b2a_ms", "ms"},
	{"arith.open_ms", "ms"},
	{"gmw.relu_ms", "ms"},
	{"gmw.exchange_ms_mlp", "ms"},
	{"gmw.exchange_ms_aes", "ms"},
	{"gmw.exchanges_per_mlp", "count"},
	{"gmw.exchanges_per_aes", "count"},
	{"gmw.and_per_s", "1/s"},
	{"circuit.eval_ms", "ms"},
	{"circuit.level_ms", "ms"},
	{"circuit.reveal_ms", "ms"},
	{"transport.bytes_per_mlp", "B"},
	{"transport.bytes_per_aes", "B"},
	{"transport.flights_per_mlp", "count"},
	{"transport.flights_per_aes", "count"},
	// fleet: router, otserv, session, pool, wire, generator.
	{"router.hop_ms_p50", "ms"},
	{"router.placements", "count"},
	{"router.retries", "count"},
	{"otserv.hello_service_ms_p50", "ms"},
	{"otserv.hello_service_ms_p90", "ms"},
	{"otserv.draw_service_ms_p50", "ms"},
	{"otserv.draw_service_ms_p90", "ms"},
	{"pool.refills_per_session", "count"},
	{"session.opened", "count"},
	{"session.expired", "count"},
	{"session.quota_sheds", "count"},
	{"session.dry_sheds", "count"},
	{"transport.bytes_per_draw", "B"},
	{"wire.overhead_bytes_per_draw", "B"},
	{"loadgen.late_ms_max", "ms"},
	{"loadgen.backlog_max", "count"},
	// Every workload: span coverage of request time and the cost of
	// tracing (traced primary p50 minus untraced).
	{"trace.coverage", "ratio"},
	{"trace.overhead_ms", "ms"},
}

type metricDef struct{ name, unit string }

// config is one invocation's flags.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	rate     float64 // fleet only: offered sessions per second
}

// run is one measured pass's outcome. metrics holds end-to-end or
// per-layer values by name; report holds the facts that explain them
// (sample counts, issue-level metric names, rates).
type run struct {
	attempted, failed int
	metrics           map[string]float64
	report            map[string]any
}

func newRun() *run {
	return &run{metrics: map[string]float64{}, report: map[string]any{}}
}

var workloads = map[string]func(config) (*run, error){
	"cot-stream": runCOTStream,
	"ppml":       runPPML,
	"fleet":      runFleet,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	report, result, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Println(report)
	fmt.Println(result)
}

// execute runs one workload and renders its report and result lines.
func execute(cfg config) (report, result string, err error) {
	rss := startRSS()
	steal0, total0 := cpuTicks()
	r, err := workloads[cfg.workload](cfg)
	steal1, total1 := cpuTicks()
	samples, rssErr := rss.finish()
	if err != nil {
		return "", "", err
	}
	if rssErr != nil {
		return "", "", rssErr
	}
	if total1 > total0 {
		// Host contention: the share of this VM's CPU time the
		// hypervisor gave to others while the workload ran.
		r.report["cpu_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	r.metrics["rss_mb_p50"] = median(samples)
	r.report["rss_mb_samples"] = len(samples)
	r.report["rss_mb_p90"] = quantile(samples, 0.9)
	if r.report["peak_rss_mb"], err = procStatusMB("VmHWM"); err != nil {
		return "", "", err
	}
	return render(cfg, r)
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "cot-stream, ppml or fleet")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: shapes inputs only")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measurement time per run")
	fs.IntVar(&trace, "trace", 0, "1 runs an untraced and a traced pass and prints per-layer metrics")
	fs.Float64Var(&cfg.rate, "rate", fleetRate, "fleet: offered session arrivals per second")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return cfg, fmt.Errorf("unknown --workload %q (valid: %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.rate <= 0 {
		return cfg, fmt.Errorf("--rate must be positive, got %g", cfg.rate)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// render builds the report line and the result line. Every metric of
// the printed set must have been measured.
func render(cfg config, r *run) (string, string, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			if !cfg.trace {
				return "", "", fmt.Errorf("%s did not measure %s", cfg.workload, d.name)
			}
			// A layer this workload does not exercise did no work.
			v = 0
		}
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	rep := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"provenance": provenance(),
		"detail":     r.report,
	}
	if cfg.workload == "fleet" {
		rep["offered_rate_per_s"] = cfg.rate
	}
	repLine, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return "", "", err
	}
	resLine, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{true, r.attempted, r.failed, metrics})
	return string(repLine), string(resLine), err
}

// provenance records which build, toolchain and host produced a result.
func provenance() map[string]any {
	p := map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"revision":   "unknown",
		"modified":   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["revision"] = s.Value
			case "vcs.modified":
				p["modified"] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the host-wide steal and total CPU ticks from
// /proc/stat; both are 0 where it is unreadable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// procStatusMB reads a kB field of /proc/self/status (VmRSS, VmHWM)
// in MB.
func procStatusMB(field string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", field, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// rssSampler records the resident set (VmRSS) every rssEvery while a
// workload runs: a peak depends on when the collector ran, the
// distribution of samples much less.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
	err        error
}

const rssEvery = 50 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			v, err := procStatusMB("VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, v)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.samples, s.err
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of the samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
