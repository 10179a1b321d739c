package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestMain lets the test binary serve as its own repetition child, as
// the perfbench binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// TestBenchmarkFileMatchesDefinitions keeps BENCHMARK.json and the
// benchmark's own workload and metric tables in step.
func TestBenchmarkFileMatchesDefinitions(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), perfbench %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, names, units, betters []string, defs []metricDef) {
		if len(names) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit || betters[i] != d.better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, perfbench %s %s %s", kind, i, names[i], units[i], betters[i], d.name, d.unit, d.better)
			}
		}
	}
	var n, u, b []string
	for _, m := range bf.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("end_to_end", n, u, b, endToEnd)
	n, u, b = nil, nil, nil
	for _, m := range bf.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", n, u, b, perLayer)
}

// TestSmoke runs every workload on a tiny window with tracing and
// checks that each metric BENCHMARK.json names is reported with its
// unit, that no run failed, and that the traced run of each pod
// workload took CPU samples.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	bf := loadBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 1, trace: true, traceDir: t.TempDir(), scale: 0.1}
			r, err := bench(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted != minReps+1 {
				t.Fatalf("correct %v, %d of %d runs failed", r.Correct, r.Failed, r.Attempted)
			}
			for _, m := range bf.EndToEnd {
				if got, ok := r.e2e[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range bf.PerLayer {
				if got, ok := r.layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if f := r.layers["fail_frac"].Value; f != 0 {
				t.Errorf("fail_frac = %v", f)
			}
			if w.mice {
				return
			}
			if r.cpuSamples == 0 {
				t.Error("traced run took no CPU samples")
			}
		})
	}
}

// TestLayerOf checks how profile stacks (leaf first) are charged to
// layers.
func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess1", "presto/internal/gro.(*Presto).Flush", "presto/internal/nic.(*NIC).poll", "presto/internal/sim.(*Engine).runWindow"}, "gro"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"presto/internal/sim.(*ShardGroup).barrier", "presto/internal/sim.(*ShardGroup).runWindows", "presto/internal/sim.(*ShardGroup).Run"}, "sim.shard"},
		{[]string{"presto/internal/sim.(*Engine).siftUp", "presto/internal/sim.(*Engine).insertKeyed", "presto/internal/sim.(*ShardGroup).barrier"}, "sim.shard"},
		{[]string{"presto/internal/sim.(*Engine).siftDown", "presto/internal/sim.(*Engine).runWindow", "presto/internal/sim.(*shard).runOne", "presto/internal/sim.(*ShardGroup).spawnWorkers.func1"}, "sim"},
		{[]string{"runtime.mallocgc", "presto/internal/sim.(*Engine).alloc", "presto/internal/sim.(*Engine).Schedule", "presto/internal/fabric.(*Pipe).transmitNext"}, "sim"},
		{[]string{"presto/internal/sim.(*shard).noteLocal", "presto/internal/sim.(*Engine).Schedule", "presto/internal/fabric.(*Pipe).transmitNext"}, "sim.shard"},
		{[]string{"presto/internal/workload/spec.(*Generator).arrive", "presto/internal/sim.(*Engine).runWindow"}, "workload"},
		{[]string{"runtime.memmove", "main.harvest", "main.runRep"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	sp := newSpans()
	root := sp.begin("root")
	a := sp.begin("a")
	sp.end(a)
	b := sp.begin("b")
	sp.end(b)
	sp.end(root)
	list := sp.finish()
	want := list[root].EndNS - list[root].StartNS - (list[a].EndNS - list[a].StartNS) - (list[b].EndNS - list[b].StartNS)
	if list[root].SelfNS != want || list[a].Parent != root || list[b].Parent != root {
		t.Fatalf("spans %+v", list)
	}
}
