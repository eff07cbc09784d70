package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(file), len(code))
		}
		for i := range file {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// exactCounts are the metrics each workload must repeat exactly under
// any seed: the seed shapes inputs, never the protocol's round
// structure or the shape of its messages.
var exactCounts = map[string][]string{
	"cot-stream": {"flights_per_req", "wire_bytes_per_cot", "transport.bytes_per_extend", "transport.msgs_per_extend", "pool.refills_per_draw"},
	"ppml": {"flights_per_req", "wire_bytes_per_cot", "cot.cots_per_mlp", "cot.cots_per_aes",
		"gmw.exchanges_per_mlp", "gmw.exchanges_per_aes", "transport.bytes_per_mlp", "transport.bytes_per_aes",
		"transport.flights_per_mlp", "transport.flights_per_aes"},
	"fleet": {"flights_per_req", "wire.overhead_bytes_per_draw"},
}

// TestWorkloadsQuick runs every workload for a second under two seeds,
// untraced and traced, and checks that every metric of BENCHMARK.json
// is printed with its unit and that the exact counts ignore the seed.
func TestWorkloadsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real protocols")
	}
	b := readBenchmarkFile(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			bySeed := map[int64]map[string]float64{}
			for _, seed := range []int64{1, 2} {
				bySeed[seed] = map[string]float64{}
				for _, trace := range []bool{false, true} {
					want := b.EndToEnd
					if trace {
						want = b.PerLayer
					}
					cfg := config{workload: name, seed: seed, seconds: 1, trace: trace, rate: fleetRate}
					_, line, err := execute(cfg)
					if err != nil {
						t.Fatalf("seed %d trace %v: %v", seed, trace, err)
					}
					var res resultLine
					if err := json.Unmarshal([]byte(line), &res); err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
						t.Fatalf("seed %d trace %v: correct %v attempted %d failed %d", seed, trace, res.Correct, res.Attempted, res.Failed)
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("seed %d trace %v: printed %d metrics, BENCHMARK.json lists %d", seed, trace, len(res.Metrics), len(want))
					}
					for _, m := range want {
						got, ok := res.Metrics[m.Name]
						if !ok || got.Unit != m.Unit {
							t.Errorf("seed %d trace %v: metric %s printed as %+v, want unit %s", seed, trace, m.Name, got, m.Unit)
						}
						if !trace && got.Value <= 0 {
							t.Errorf("seed %d: end-to-end metric %s is %g, want > 0", seed, m.Name, got.Value)
						}
						bySeed[seed][m.Name] = got.Value
					}
				}
			}
			for _, m := range exactCounts[name] {
				if bySeed[1][m] != bySeed[2][m] {
					t.Errorf("exact count %s changed with the seed: %g vs %g", m, bySeed[1][m], bySeed[2][m])
				}
			}
		})
	}
}

func TestSeedShapesInputs(t *testing.T) {
	if reflect.DeepEqual(newPPMLInputs(1).model, newPPMLInputs(2).model) {
		t.Error("ppml model does not depend on the seed")
	}
	if !reflect.DeepEqual(newPPMLInputs(3).model, newPPMLInputs(3).model) {
		t.Error("ppml model is not a function of the seed")
	}
	if planSession(1, 0) == planSession(2, 0) {
		t.Error("fleet session plan does not depend on the seed")
	}
	if planSession(3, 5) != planSession(3, 5) {
		t.Error("fleet session plan is not a function of the seed")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}
