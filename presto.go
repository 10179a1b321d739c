// Package presto is a full reproduction of "Presto: Edge-based Load
// Balancing for Fast Datacenter Networks" (He et al., SIGCOMM 2015)
// on a deterministic discrete-event network simulator.
//
// The package exposes the experiment harness used by the examples,
// the cmd/experiments binary, and the benchmarks: one runner per
// table and figure in the paper's evaluation. The building blocks —
// flowcell spraying (Algorithm 1), the modified GRO flush (Algorithm
// 2), shadow-MAC spanning trees, the Clos fabric, TCP/MPTCP — live in
// the internal packages and are assembled by internal/cluster.
package presto

import (
	"fmt"
	"strings"

	"presto/internal/cluster"
	"presto/internal/packet"
	"presto/internal/scheme"
	"presto/internal/sim"
	"presto/internal/telemetry"
	"presto/internal/topo"
)

// System is a complete load-balancing configuration compared in the
// evaluation (§4): a registry scheme (plus parameter overrides), the
// receive offload and transport it declares, and the topology
// baseline. Systems are comparable values — the historical enum-like
// variables below keep their display names (and therefore campaign
// cell IDs) byte-stable — and any registry scheme becomes a System
// via SystemFor.
type System struct {
	scheme string // registry name ("" is invalid; use SystemFor or the vars below)
	params string // canonical "k=v,k=v" overrides ("" = schema defaults)
	// display is the historical name ("ECMP", "Flowlet-100us", …);
	// empty for registry-derived systems, which render as the spec.
	display string
	// optimal swaps the run topology for the single non-blocking
	// switch baseline.
	optimal bool
}

// The systems of §4/§5.
var (
	// SysECMP pins each flow to one random end-to-end path.
	SysECMP = System{scheme: "ecmp", display: "ECMP"}
	// SysMPTCP runs 8 ECMP-pinned subflows with coupled congestion
	// control.
	SysMPTCP = System{scheme: "mptcp", display: "MPTCP"}
	// SysPresto is the paper's contribution: 64 KB flowcell spraying +
	// Presto GRO.
	SysPresto = System{scheme: "presto", display: "Presto"}
	// SysOptimal attaches all hosts to one non-blocking switch.
	SysOptimal = System{scheme: "ecmp", display: "Optimal", optimal: true}
	// SysFlowlet100 switches flowlets at a 100 µs inactivity gap.
	SysFlowlet100 = System{scheme: "flowlet", params: "gap=100us", display: "Flowlet-100us"}
	// SysFlowlet500 switches flowlets at a 500 µs inactivity gap.
	SysFlowlet500 = System{scheme: "flowlet", params: "gap=500us", display: "Flowlet-500us"}
	// SysPrestoECMP sprays flowcells per hop via switch ECMP hashing.
	SysPrestoECMP = System{scheme: "presto-ecmp", display: "Presto+ECMP"}
	// SysPerPacket sprays every MTU packet (TSO off).
	SysPerPacket = System{scheme: "per-packet", display: "PerPacket"}
)

// paperSystems names the systems of §4/§5 the way the front-ends
// always have; SystemFor tries them before the registry.
var paperSystems = map[string]System{
	"ecmp":        SysECMP,
	"mptcp":       SysMPTCP,
	"presto":      SysPresto,
	"optimal":     SysOptimal,
	"flowlet100":  SysFlowlet100,
	"flowlet500":  SysFlowlet500,
	"presto-ecmp": SysPrestoECMP,
	"prestoecmp":  SysPrestoECMP,
	"per-packet":  SysPerPacket,
	"perpacket":   SysPerPacket,
}

// SystemFor is the one system-name resolver every front-end uses. A
// paper system name (ecmp, mptcp, presto, optimal, flowlet100,
// flowlet500, presto-ecmp, per-packet) yields that historical System;
// anything else is a registry scheme spec ("diffflow",
// "presto:cell=32KB", …) validated against the registry.
func SystemFor(spec string) (System, error) {
	if sys, ok := paperSystems[strings.ToLower(strings.TrimSpace(spec))]; ok {
		return sys, nil
	}
	name, params, err := scheme.ParseSpec(spec)
	if err != nil {
		// A known scheme with bad params keeps the registry's error
		// (it names the offending key); an unknown name gets the lineup.
		bare, _, _ := strings.Cut(spec, ":")
		if _, getErr := scheme.Get(strings.TrimSpace(bare)); getErr == nil {
			return System{}, err
		}
		return System{}, fmt.Errorf("unknown system %q (paper systems: ecmp | mptcp | presto | optimal | flowlet100 | flowlet500 | presto-ecmp | per-packet; or any scheme spec: %s)",
			spec, strings.Join(scheme.Names(), " | "))
	}
	canon := scheme.CanonicalSpec(name, params)
	sys := System{scheme: name}
	if canon != name {
		sys.params = strings.TrimPrefix(canon, name+":")
	}
	return sys, nil
}

// SchemeSystems returns one default-parameter System per registered
// scheme, in sorted registry order.
func SchemeSystems() []System {
	names := scheme.Names()
	out := make([]System, len(names))
	for i, n := range names {
		out[i] = System{scheme: n}
	}
	return out
}

// SchemeName returns the registry scheme the system runs.
func (s System) SchemeName() string { return s.scheme }

func (s System) String() string {
	if s.display != "" {
		return s.display
	}
	if s.params != "" {
		return s.scheme + ":" + s.params
	}
	return s.scheme
}

// paramMap expands the canonical param string back into raw values
// for cluster.Config.SchemeParams.
func (s System) paramMap() map[string]string {
	if s.params == "" {
		return nil
	}
	m := make(map[string]string)
	for _, kv := range strings.Split(s.params, ",") {
		if eq := strings.IndexByte(kv, '='); eq > 0 {
			m[kv[:eq]] = kv[eq+1:]
		}
	}
	return m
}

// Options tunes an experiment run. Zero values take defaults sized
// for simulation (the paper runs 10 s × 20 repetitions on hardware;
// the simulator's deterministic steady state needs far less).
type Options struct {
	Seed     uint64
	Warmup   sim.Time // excluded from measurement (default 50 ms)
	Duration sim.Time // measurement window (default 200 ms)

	MiceSize      int      // bytes per mouse (default 50 KB, §4)
	MiceResp      int      // app-level ack size (default 100 B)
	MiceInterval  sim.Time // per-pair spacing (paper: 100 ms; default 5 ms to gather tail samples in a short window)
	ProbeInterval sim.Time // RTT probe spacing (default 1 ms)

	// Telemetry, when non-nil, wires event tracing and snapshot probes
	// through the run's cluster; the run's snapshot is attached to the
	// result. Nil (the default) adds zero overhead and leaves results
	// bit-identical.
	Telemetry *telemetry.Registry

	// Shards partitions the engine into per-pod shards with
	// conservative lookahead synchronization; results stay
	// bit-identical to the serial engine. Honored by pod-scale
	// experiments (RunPodTraffic); the figure-specific runners above
	// always execute serially — their probers, link failures, and
	// telemetry hooks are cross-shard by nature. 0 or 1 = serial.
	Shards int
}

func (o *Options) fill() {
	if o.Warmup == 0 {
		o.Warmup = 50 * sim.Millisecond
	}
	if o.Duration == 0 {
		o.Duration = 200 * sim.Millisecond
	}
	if o.MiceSize == 0 {
		o.MiceSize = 50_000
	}
	if o.MiceResp == 0 {
		o.MiceResp = 100
	}
	if o.MiceInterval == 0 {
		o.MiceInterval = 5 * sim.Millisecond
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = sim.Millisecond
	}
}

// Testbed returns the paper's Figure 3 topology: a 2-tier Clos with 4
// spines, 4 leaves, and 16 hosts, all 10 Gbps.
func Testbed() *topo.Topology {
	return topo.TwoTierClos(4, 4, 4, 1, topo.LinkConfig{})
}

// ScalabilityTopo returns Figure 4a's topology: 2 leaves and `paths`
// spines, with one host per (leaf, flow).
func ScalabilityTopo(paths int) *topo.Topology {
	return topo.TwoTierClos(paths, 2, paths, 1, topo.LinkConfig{})
}

// OversubTopo returns Figure 4b's topology: 2 spines, 2 leaves, and
// `flows` hosts per leaf (oversubscription = flows/2).
func OversubTopo(flows int) *topo.Topology {
	return topo.TwoTierClos(2, 2, flows, 1, topo.LinkConfig{})
}

// OptimalTopo returns a single non-blocking switch with the given
// host count.
func OptimalTopo(hosts int) *topo.Topology {
	return topo.SingleSwitch(hosts, topo.LinkConfig{})
}

// buildCluster assembles a cluster for a system on a topology.
func buildCluster(sys System, tp *topo.Topology, opt Options) *cluster.Cluster {
	return cluster.New(sys.ClusterConfig(tp, opt))
}

// ClusterConfig maps the system onto a cluster configuration for tp:
// the registry scheme and its parameters, plus opt's seed and
// telemetry. Callers that support sharding set Shards on the result.
func (s System) ClusterConfig(tp *topo.Topology, opt Options) cluster.Config {
	return cluster.Config{
		Topology:     tp,
		Seed:         opt.Seed,
		Telemetry:    opt.Telemetry,
		Scheme:       cluster.Scheme(s.scheme),
		SchemeParams: s.paramMap(),
	}
}

// topoFor returns the topology a system runs on, given the Clos the
// non-optimal systems use: Optimal swaps in a single switch with the
// same host count.
func topoFor(sys System, clos func() *topo.Topology) *topo.Topology {
	if sys.optimal {
		return topo.SingleSwitch(clos().NumHosts(), topo.LinkConfig{})
	}
	return clos()
}

// hostPairs builds (i, i+offset) pairs over n hosts.
func hostPairs(n, offset int) [][2]packet.HostID {
	out := make([][2]packet.HostID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, [2]packet.HostID{packet.HostID(i), packet.HostID((i + offset) % n)})
	}
	return out
}
