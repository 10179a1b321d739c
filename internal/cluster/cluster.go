// Package cluster assembles a whole emulated testbed: a topology's
// fabric, one host per server (vSwitch + NIC + GRO + transport
// endpoints), the central controller, and helpers for opening
// connections, probing RTT, and failing links. This is the layer the
// experiment harness drives.
package cluster

import (
	"presto/internal/controller"
	"presto/internal/fabric"
	"presto/internal/gro"
	"presto/internal/nic"
	"presto/internal/packet"
	"presto/internal/scheme"
	"presto/internal/sim"
	"presto/internal/tcp"
	"presto/internal/telemetry"
	"presto/internal/topo"
	"presto/internal/vswitch"
)

// Scheme names the load-balancing configuration under test (§4): the
// edge policy, the receive-offload algorithm, and the transport. The
// value is a registry name from internal/scheme — any registered
// scheme works, the constants below are the paper's lineup. The
// zero value selects ECMP.
type Scheme string

const (
	// ECMP pins each flow to one random end-to-end path (the paper's
	// ECMP baseline), with official GRO.
	ECMP Scheme = "ecmp"
	// MPTCP runs 8 subflows per connection, each ECMP-pinned, with
	// coupled congestion control and official GRO.
	MPTCP Scheme = "mptcp"
	// Presto sprays 64 KB flowcells round-robin over shadow-MAC
	// spanning trees with Presto GRO at receivers.
	Presto Scheme = "presto"
	// Flowlet switches paths at inactivity gaps (the scheme's "gap"
	// param) with official GRO.
	Flowlet Scheme = "flowlet"
	// PrestoECMP stamps flowcells but lets switches hash them per hop
	// (Figure 14's comparison).
	PrestoECMP Scheme = "presto-ecmp"
	// PerPacket sprays every MTU packet (TSO off) with Presto GRO —
	// the per-packet baseline of §2.1.
	PerPacket Scheme = "per-packet"
)

// GROKind overrides the receive-offload algorithm.
type GROKind int

const (
	// GROAuto picks the scheme's natural handler.
	GROAuto GROKind = iota
	// GROOfficial forces stock GRO.
	GROOfficial
	// GROPresto forces Presto GRO.
	GROPresto
	// GRONone disables receive offload.
	GRONone
	// GROLROOfficial stacks hardware LRO in front of official GRO.
	GROLROOfficial
	// GROLROPresto stacks hardware LRO in front of Presto GRO (§2.2:
	// the hardware stays simple, software handles reordering).
	GROLROPresto
)

// prestoGROOverhead is the extra per-packet CPU cost of Presto GRO's
// multi-segment bookkeeping (calibrated to Figure 6's +6%).
const prestoGROOverhead = 80 * sim.Nanosecond

// Config describes a testbed instance.
type Config struct {
	Topology *topo.Topology
	Scheme   Scheme
	Seed     uint64

	// SchemeParams overrides the scheme's schema defaults (raw values,
	// validated against the registry schema: e.g. {"cell": "32KB"} for
	// Presto's flowcell size, {"gap": "100us"} for Flowlet,
	// {"subflows": "4"} for MPTCP). It is the only route for scheme
	// parameters.
	SchemeParams map[string]string

	GRO       GROKind
	GROConfig gro.PrestoConfig

	TCP    tcp.Config
	NIC    nic.Config
	Fabric fabric.Config
	Ctrl   controller.Config

	// RecordFlowcells enables per-receiver flowcell arrival logs
	// (Figure 5a).
	RecordFlowcells bool

	// Shards partitions the fabric into per-pod shards, each running
	// its own engine on its own goroutine with conservative lookahead
	// synchronization (the lookahead is the minimum propagation delay
	// across inter-pod links). Results are bit-identical to the serial
	// engine. 0 or 1 selects the serial engine; values above the
	// topology's pod count are capped. Sharded clusters reject
	// Telemetry, link failures, and Probers: those paths mutate or
	// read cross-shard state mid-run.
	Shards int

	// Telemetry, when non-nil, wires the registry's tracer through every
	// component, registers snapshot probes, and starts the fabric link
	// monitor. Nil (the default) leaves the whole layer off.
	Telemetry *telemetry.Registry
}

// Host is one server: its edge datapath and interface.
type Host struct {
	ID  packet.HostID
	VS  *vswitch.VSwitch
	NIC *nic.NIC
}

// Cluster is a running testbed.
type Cluster struct {
	// Eng is the single engine in serial mode; nil when sharded. Use
	// Run/RunAll/Now to drive the cluster in either mode.
	Eng   *sim.Engine
	Topo  *topo.Topology
	Net   *fabric.Network
	Ctrl  *controller.Controller
	Hosts []*Host

	// group synchronizes the per-pod shard engines (nil when serial).
	group *sim.ShardGroup

	cfg      Config
	rng      *sim.RNG
	nextPort uint16
	conns    []*Conn
	taps     map[packet.HostID]*tap
	mon      *fabric.Monitor

	// Registry-resolved scheme state.
	def       *scheme.Scheme
	params    scheme.Resolved
	transport scheme.Transport
}

// New builds and wires a testbed. The controller's label state is
// installed immediately (the paper's preemptive push).
func New(cfg Config) *Cluster {
	if cfg.Topology == nil {
		panic("cluster: Config.Topology required")
	}
	if cfg.Scheme == "" {
		cfg.Scheme = ECMP
	}
	c := &Cluster{
		Topo:     cfg.Topology,
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15),
		nextPort: 10000,
		taps:     make(map[packet.HostID]*tap),
	}
	c.resolveScheme()
	if cfg.Ctrl.TreeWeights == nil {
		cfg.Ctrl.TreeWeights = c.def.Hooks.TreeWeights
		cfg.Ctrl.WeightSlots = c.def.Hooks.WeightSlots
		c.cfg.Ctrl = cfg.Ctrl
	}
	shards := cfg.Shards
	if shards > cfg.Topology.NumPods {
		shards = cfg.Topology.NumPods
	}
	if shards > 1 {
		if cfg.Telemetry != nil {
			panic("cluster: Telemetry requires Shards <= 1 (tracer state is cross-shard)")
		}
		shardOf, lookahead := shardPartition(cfg.Topology, shards)
		c.group = sim.NewShardGroup(shards, lookahead, cfg.Seed)
		c.Net = fabric.NewSharded(c.group, shardOf, cfg.Topology, cfg.Fabric)
	} else {
		c.Eng = sim.NewEngine()
		c.Net = fabric.New(c.Eng, cfg.Topology, cfg.Fabric)
	}
	// The controller only runs at install time and on link failures;
	// both are sequential-phase paths, so any engine's clock serves.
	c.Ctrl = controller.New(c.ctrlEngine(), c.Net, cfg.Ctrl)

	for i := 0; i < cfg.Topology.NumHosts(); i++ {
		h := packet.HostID(i)
		eng := c.engOf(h)
		vs := vswitch.New(eng, h, nil, c.newPolicy(h))
		nicCfg := cfg.NIC
		nicCfg.CPU.HandlerOverhead = 0
		kind := c.groKind()
		if kind == GROPresto || kind == GROLROPresto {
			base := nic.DefaultCPUConfig()
			if nicCfg.CPU != (nic.CPUConfig{}) {
				base = nicCfg.CPU
			}
			base.HandlerOverhead = prestoGROOverhead
			nicCfg.CPU = base
		}
		n := nic.New(eng, c.Net, h, vs, c.makeGRO(kind, eng), nicCfg)
		vs.SetSender(n)
		c.Net.AttachHost(h, n)
		c.Ctrl.RegisterVSwitch(vs)
		c.Hosts = append(c.Hosts, &Host{ID: h, VS: vs, NIC: n})
	}
	c.Ctrl.InstallAll()
	c.wireTelemetry()
	return c
}

// shardPartition maps every node to a shard (pod p → shard p mod
// count; pod-less core/spine nodes round-robin) and returns the
// conservative lookahead: the minimum propagation delay over links
// whose endpoints land on different shards.
func shardPartition(t *topo.Topology, count int) ([]int32, sim.Time) {
	shardOf := make([]int32, len(t.Nodes))
	rr := 0
	for id := range t.Nodes {
		if p := t.PodOf(topo.NodeID(id)); p >= 0 {
			shardOf[id] = int32(p % count)
		} else {
			shardOf[id] = int32(rr % count)
			rr++
		}
	}
	lookahead := sim.Time(0)
	for _, l := range t.Links {
		if shardOf[l.A] == shardOf[l.B] {
			continue
		}
		if lookahead == 0 || l.Propagation < lookahead {
			lookahead = l.Propagation
		}
	}
	if lookahead <= 0 {
		// Fully partitioned shards never exchange events; any positive
		// lookahead keeps the group windows legal.
		lookahead = 1
	}
	return shardOf, lookahead
}

// ctrlEngine picks the engine whose clock stamps controller actions.
func (c *Cluster) ctrlEngine() *sim.Engine {
	if c.group != nil {
		return c.group.Shard(0)
	}
	return c.Eng
}

// engOf returns the engine host h's edge components run on.
func (c *Cluster) engOf(h packet.HostID) *sim.Engine {
	return c.Net.EngineFor(c.Topo.HostNode(h))
}

// Group returns the shard group driving a sharded cluster (nil when
// serial).
func (c *Cluster) Group() *sim.ShardGroup { return c.group }

// Shards returns the number of engine shards (1 when serial).
func (c *Cluster) Shards() int {
	if c.group != nil {
		return c.group.Shards()
	}
	return 1
}

// Run advances simulated time to until in either mode and returns the
// new clock.
func (c *Cluster) Run(until sim.Time) sim.Time {
	if c.group != nil {
		return c.group.Run(until)
	}
	return c.Eng.Run(until)
}

// RunAll drains every pending event in either mode.
func (c *Cluster) RunAll() sim.Time {
	if c.group != nil {
		return c.group.RunAll()
	}
	return c.Eng.RunAll()
}

// Now returns the cluster's simulated clock.
func (c *Cluster) Now() sim.Time {
	if c.group != nil {
		return c.group.Now()
	}
	return c.Eng.Now()
}

// Executed returns the number of events executed across all engines.
func (c *Cluster) Executed() uint64 {
	if c.group != nil {
		return c.group.Executed()
	}
	return c.Eng.Executed
}

// resolveScheme looks the configured scheme up in the registry and
// resolves its parameters: schema defaults overlaid with SchemeParams.
// Config errors panic — New has no error return, and front-ends
// validate specs via scheme.ParseSpec before building.
func (c *Cluster) resolveScheme() {
	def, err := scheme.Get(string(c.cfg.Scheme))
	if err != nil {
		panic("cluster: " + err.Error())
	}
	params, err := def.Resolve(c.cfg.SchemeParams)
	if err != nil {
		panic("cluster: " + err.Error())
	}
	c.def, c.params = def, params
	c.transport = def.TransportFor(params)
}

// groKind resolves the effective GRO algorithm.
func (c *Cluster) groKind() GROKind {
	if c.cfg.GRO != GROAuto {
		return c.cfg.GRO
	}
	if c.def.GRO == scheme.GROPresto {
		return GROPresto
	}
	return GROOfficial
}

func (c *Cluster) makeGRO(kind GROKind, eng *sim.Engine) func(out gro.Output) gro.Handler {
	cfg := c.cfg.GROConfig
	return func(out gro.Output) gro.Handler {
		switch kind {
		case GROPresto:
			return gro.NewPresto(eng, out, cfg)
		case GRONone:
			return gro.NewNone(eng, out)
		case GROLROOfficial:
			return gro.NewLRO(eng, gro.NewOfficial(eng, out))
		case GROLROPresto:
			return gro.NewLRO(eng, gro.NewPresto(eng, out, cfg))
		default:
			return gro.NewOfficial(eng, out)
		}
	}
}

// newPolicy builds a fresh policy instance for one host via the
// scheme registry. The Fork closure is lazy: only constructors that
// need randomness draw from the cluster stream, so schemes that never
// forked before the registry existed still don't — keeping RNG
// consumption order (and every downstream fork) byte-identical.
func (c *Cluster) newPolicy(h packet.HostID) vswitch.Policy {
	return c.def.New(scheme.Host{
		ID:   h,
		Fork: func() *sim.RNG { return c.rng.Fork() },
	}, c.params)
}

// tcpConfig returns the per-connection transport config for the
// scheme.
func (c *Cluster) tcpConfig() tcp.Config {
	cfg := c.cfg.TCP
	if c.transport.MSSWrites {
		// TSO off: the stack hands down MSS-sized writes.
		cfg.MSS = packet.MSS
	}
	if c.transport.MaxSeg > 0 && c.transport.MaxSeg < packet.MaxSegSize {
		cfg.MaxSeg = c.transport.MaxSeg
	}
	cfg.RecordFlowcells = c.cfg.RecordFlowcells
	return cfg
}

// FailLink fails a link in the fabric and notifies the controller.
// Serial clusters only: the controller's deferred label push would
// mutate switch tables on every shard mid-run.
func (c *Cluster) FailLink(id topo.LinkID) {
	if c.group != nil {
		panic("cluster: FailLink requires Shards <= 1")
	}
	c.Net.FailLink(id)
	c.Ctrl.HandleLinkFailure(id)
}

// RestoreLink restores a link and notifies the controller. Serial
// clusters only, like FailLink.
func (c *Cluster) RestoreLink(id topo.LinkID) {
	if c.group != nil {
		panic("cluster: RestoreLink requires Shards <= 1")
	}
	c.Net.RestoreLink(id)
	c.Ctrl.HandleLinkRestore(id)
}

// RNG returns a forked random stream (deterministic per call order).
func (c *Cluster) RNG() *sim.RNG { return c.rng.Fork() }

// tap interposes a capture callback before a NIC.
type tap struct {
	eng  *sim.Engine
	next fabric.Handler
	fn   func(at sim.Time, p *packet.Packet)
}

func (t *tap) HandlePacket(p *packet.Packet) {
	t.fn(t.eng.Now(), p)
	t.next.HandlePacket(p)
}

// TapHost inserts a packet-capture callback in front of host h's NIC:
// every packet delivered to the host is reported (with its arrival
// time) before normal processing. Multiple taps stack.
func (c *Cluster) TapHost(h packet.HostID, fn func(at sim.Time, p *packet.Packet)) {
	var next fabric.Handler = c.Hosts[h].NIC
	if t, ok := c.taps[h]; ok {
		next = t
	}
	t := &tap{eng: c.engOf(h), next: next, fn: fn}
	c.taps[h] = t
	c.Net.AttachHost(h, t)
}

// Conns returns every connection opened on this cluster.
func (c *Cluster) Conns() []*Conn { return c.conns }

func (c *Cluster) allocPort() uint16 {
	p := c.nextPort
	c.nextPort++
	if c.nextPort < 10000 {
		c.nextPort = 10000
	}
	return p
}
