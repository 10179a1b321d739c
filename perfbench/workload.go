package main

import (
	_ "embed"
	"fmt"

	"presto"
	"presto/internal/cluster"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/workload"
	wspec "presto/internal/workload/spec"
)

// miceSpec is the testbed-mice traffic: the mice-heavy empirical size
// CDF alone, as one Poisson client at 40k flows/s.
//
//go:embed mice.json
var miceSpec []byte

// slices is the number of equal simulated-time slices the measured
// window is cut into; each slice is one timed Cluster.Run call.
const slices = 100

// workloadDef is one benchmark scenario: a topology and traffic built
// from a seed, and the simulated windows one repetition runs.
type workloadDef struct {
	name string
	why  string
	// warmup is simulated before measuring; window is measured, cut
	// into slices. drain ends flow arrivals this long before the
	// window closes, so every started flow can finish.
	warmup, window, drain sim.Time
	// shards is the engine partitioning of the timed runs (0 = serial).
	shards int
	// topology builds the network; mice selects the spec-driven mice
	// traffic instead of one elephant per host.
	topology func() *topo.Topology
	mice     bool
}

var workloads = []workloadDef{
	{
		name:     "pod32-elephants",
		why:      "32-host pod Clos, one cross-pod elephant per host, serial engine: lockstep fabric, tie-heavy event queue, per-hop allocation",
		warmup:   2 * sim.Millisecond,
		window:   20 * sim.Millisecond,
		topology: func() *topo.Topology { return presto.PodTopo(8, 2) },
	},
	{
		name:     "pod1000-2shard",
		why:      "1000-host 25-pod Clos on 2 shards: setup-dominated (controller trees), the only run of the shard barrier, large working set",
		warmup:   2 * sim.Millisecond,
		window:   4 * sim.Millisecond,
		shards:   2,
		topology: func() *topo.Topology { return presto.PodTopo(25, 20) },
	},
	{
		name:     "testbed-mice",
		why:      "Fig 3 16-host testbed with 40k mice/s and RTT probers: TCP connection churn, timers, spec generator, FCT metrics, GRO per-flow state growth",
		warmup:   10 * sim.Millisecond,
		window:   190 * sim.Millisecond,
		drain:    10 * sim.Millisecond,
		topology: presto.Testbed,
		mice:     true,
	},
}

// scaled returns a copy of w with its warmup and measured window
// multiplied by f; the drain margin stays, so flows still finish.
func (w *workloadDef) scaled(f float64) *workloadDef {
	c := *w
	if f != 1 {
		c.warmup = sim.Time(float64(w.warmup) * f)
		c.window = sim.Time(float64(w.window) * f)
	}
	return &c
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scenario is a built workload instance whose clock has not started.
type scenario struct {
	c   *cluster.Cluster
	el  *workload.Elephants // pod workloads
	gen *wspec.Generator    // testbed-mice
}

// build constructs the scenario, recording one span per setup phase
// (topology, cluster, workload). serial forces the serial engine, which
// is how pod1000-2shard's reference fingerprints are taken.
func (w *workloadDef) build(seed uint64, serial bool, sp *spans) (*scenario, error) {
	id := sp.begin("setup.topo")
	tp := w.topology()
	sp.end(id)

	id = sp.begin("setup.cluster")
	cfg := cluster.Config{Topology: tp, Scheme: cluster.Presto, Seed: seed}
	if !serial {
		cfg.Shards = w.shards
	}
	c := cluster.New(cfg)
	sp.end(id)

	id = sp.begin("setup.workload")
	defer sp.end(id)
	sc := &scenario{c: c}
	n := tp.NumHosts()
	if !w.mice {
		// One cross-pod elephant per host: host i sends to the
		// same-position host one pod over, as RunPodTraffic does.
		perPod := n / tp.NumPods
		pairs := make([][2]packet.HostID, 0, n)
		for i := 0; i < n; i++ {
			pairs = append(pairs, [2]packet.HostID{packet.HostID(i), packet.HostID((i + perPod) % n)})
		}
		sc.el = workload.Pairs(c, pairs)
		return sc, nil
	}
	ws, err := wspec.Parse(miceSpec)
	if err != nil {
		return nil, fmt.Errorf("mice spec: %w", err)
	}
	if sc.gen, err = wspec.Compile(ws, c, seed); err != nil {
		return nil, fmt.Errorf("mice spec: %w", err)
	}
	// RTT probers on the stride(8) pairs, as the Fig 3 experiments use.
	stride := make([][2]packet.HostID, 0, n)
	for i := 0; i < n; i++ {
		stride = append(stride, [2]packet.HostID{packet.HostID(i), packet.HostID((i + n/2) % n)})
	}
	workload.StartProbers(c, stride, sim.Millisecond)
	sc.gen.Start(w.warmup + w.window - w.drain)
	return sc, nil
}
