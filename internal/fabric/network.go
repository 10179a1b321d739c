package fabric

import (
	"fmt"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/telemetry"
	"presto/internal/topo"
)

// Handler receives packets delivered to a host's NIC.
type Handler interface {
	HandlePacket(p *packet.Packet)
}

// Config sets the dynamic parameters of the fabric.
type Config struct {
	// SwitchQueueBytes is the per-port output buffer at switches. The
	// testbed's G8264 switches draw on a multi-megabyte shared buffer;
	// the default matches the multi-millisecond RTT tails the paper
	// measures under congestion (Figures 8, 11).
	SwitchQueueBytes int
	// HostQueueBytes is the host NIC's transmit queue (driver ring),
	// deeper than a switch port.
	HostQueueBytes int
	// FailoverLatency is the time between a link failing and the
	// hardware fast-failover rule activating ("several to tens of
	// milliseconds", §3.3). Until it elapses, traffic to the dead port
	// is black-holed.
	FailoverLatency sim.Time
	// ECNThresholdBytes makes switch ports mark Congestion Experienced
	// on packets that arrive to a queue deeper than this (DCTCP-style
	// marking). Zero disables marking. Host access pipes never mark.
	ECNThresholdBytes int
}

// DefaultConfig returns testbed-like defaults.
func DefaultConfig() Config {
	return Config{
		SwitchQueueBytes: 2 << 20,
		HostQueueBytes:   4 * 1024 * 1024,
		FailoverLatency:  5 * sim.Millisecond,
	}
}

func (c *Config) fill() {
	d := DefaultConfig()
	if c.SwitchQueueBytes == 0 {
		c.SwitchQueueBytes = d.SwitchQueueBytes
	}
	if c.HostQueueBytes == 0 {
		c.HostQueueBytes = d.HostQueueBytes
	}
	if c.FailoverLatency == 0 {
		c.FailoverLatency = d.FailoverLatency
	}
}

// shardCounters holds one shard's slice of the aggregate drop and
// delivery counts. Each pipe and switch increments the bucket of the
// shard its node runs on, so counting never crosses goroutines; the
// Total* accessors sum the buckets. Padding keeps concurrently-written
// buckets on separate cache lines.
type shardCounters struct {
	drops     uint64 // queue-overflow drops
	dropsDown uint64 // failure black-hole drops
	delivered uint64 // packets handed to host NICs
	hopDrops  uint64 // loop-guard drops
	_         [4]uint64
}

// Network is the running data plane for a Topology.
type Network struct {
	// Eng drives the whole fabric in serial mode; it is nil for a
	// sharded network, where every node runs on its shard's engine
	// (see EngineFor).
	Eng  *sim.Engine
	Topo *topo.Topology
	cfg  Config

	// Sharded mode (NewSharded): the shard group, the node→shard
	// assignment, and one counter bucket per shard. Serial networks
	// keep group/shardOf nil and a single bucket.
	group    *sim.ShardGroup
	shardOf  []int32
	counters []shardCounters

	// pipes holds both directions of every link: pipes[2*id] transmits
	// from link id's A end, pipes[2*id+1] from its B end.
	pipes []Pipe
	// switches is indexed by NodeID (nil for hosts), hosts by HostID.
	switches []*Switch
	hosts    []Handler

	// downSince[id] is when link id failed, or linkUp while it is up.
	downSince []sim.Time
	tracer    *telemetry.Tracer
}

// linkUp marks a live link in Network.downSince.
const linkUp sim.Time = -1

// New builds the data plane for t, driven by the single engine eng.
func New(eng *sim.Engine, t *topo.Topology, cfg Config) *Network {
	n := newNetwork(t, cfg)
	n.Eng = eng
	n.counters = make([]shardCounters, 1)
	n.populate()
	return n
}

// NewSharded builds the data plane over a shard group: every node's
// events run on the engine of its assigned shard, and packets crossing
// a shard boundary ride ShardGroup.Send with the link's propagation
// delay. shardOf maps every NodeID to a shard index. Bit-identity with
// the serial engine requires every cross-shard link's propagation to
// be at least the group's lookahead; violations panic here rather than
// reordering events mid-run.
func NewSharded(g *sim.ShardGroup, shardOf []int32, t *topo.Topology, cfg Config) *Network {
	if len(shardOf) != len(t.Nodes) {
		panic(fmt.Sprintf("fabric: shard map covers %d nodes, topology has %d", len(shardOf), len(t.Nodes)))
	}
	for id, s := range shardOf {
		if int(s) < 0 || int(s) >= g.Shards() {
			panic(fmt.Sprintf("fabric: node %d assigned to shard %d of %d", id, s, g.Shards()))
		}
	}
	for _, l := range t.Links {
		if shardOf[l.A] != shardOf[l.B] && l.Propagation < g.Lookahead() {
			panic(fmt.Sprintf("fabric: cross-shard link %d propagation %v below lookahead %v",
				l.ID, l.Propagation, g.Lookahead()))
		}
	}
	n := newNetwork(t, cfg)
	n.group = g
	n.shardOf = shardOf
	n.counters = make([]shardCounters, g.Shards())
	n.populate()
	return n
}

func newNetwork(t *topo.Topology, cfg Config) *Network {
	cfg.fill()
	n := &Network{
		Topo:      t,
		cfg:       cfg,
		pipes:     make([]Pipe, 2*len(t.Links)),
		switches:  make([]*Switch, len(t.Nodes)),
		hosts:     make([]Handler, t.NumHosts()),
		downSince: make([]sim.Time, len(t.Links)),
	}
	for i := range n.downSince {
		n.downSince[i] = linkUp
	}
	return n
}

// populate builds the pipes and switches once the engine topology
// (serial or sharded) is settled.
func (n *Network) populate() {
	t := n.Topo
	for _, l := range t.Links {
		for dir, from := range [2]topo.NodeID{l.A, l.B} {
			capBytes := n.cfg.SwitchQueueBytes
			if t.Nodes[from].Kind == topo.KindHost {
				capBytes = n.cfg.HostQueueBytes
			}
			dst := l.Other(from)
			dstShard := -1
			if n.group != nil && n.shardOf[from] != n.shardOf[dst] {
				dstShard = int(n.shardOf[dst])
			}
			p := &n.pipes[2*int(l.ID)+dir]
			*p = Pipe{
				eng: n.EngineFor(from), net: n, link: l, from: from,
				dst: dst, dstShard: dstShard,
				ctr: n.counterOf(from), capBytes: capBytes,
			}
			// Bound once: the pipe stays at this address for the run.
			p.txDoneFn, p.deliverFn = p.txDone, p.deliverHead
		}
	}
	for _, node := range t.Nodes {
		if node.Kind != topo.KindHost {
			n.switches[node.ID] = newSwitch(n, node)
		}
	}
}

// EngineFor returns the engine that node's events must run on: its
// shard's engine in sharded mode, the serial engine otherwise.
func (n *Network) EngineFor(node topo.NodeID) *sim.Engine {
	if n.group == nil {
		return n.Eng
	}
	return n.group.Shard(int(n.shardOf[node]))
}

// counterOf returns the counter bucket of node's shard.
func (n *Network) counterOf(node topo.NodeID) *shardCounters {
	if n.shardOf == nil {
		return &n.counters[0]
	}
	return &n.counters[n.shardOf[node]]
}

// now returns fabric time for control-plane paths (link failures,
// telemetry snapshots) that execute between runs.
func (n *Network) now() sim.Time {
	if n.group != nil {
		return n.group.Now()
	}
	return n.Eng.Now()
}

// TotalDrops returns queue-overflow drops summed across shards.
func (n *Network) TotalDrops() uint64 {
	var s uint64
	for i := range n.counters {
		s += n.counters[i].drops
	}
	return s
}

// TotalDropsDown returns failure black-hole drops summed across shards.
func (n *Network) TotalDropsDown() uint64 {
	var s uint64
	for i := range n.counters {
		s += n.counters[i].dropsDown
	}
	return s
}

// TotalDelivered returns packets handed to host NICs, summed across
// shards.
func (n *Network) TotalDelivered() uint64 {
	var s uint64
	for i := range n.counters {
		s += n.counters[i].delivered
	}
	return s
}

// TotalHopDrops returns loop-guard drops summed across shards.
func (n *Network) TotalHopDrops() uint64 {
	var s uint64
	for i := range n.counters {
		s += n.counters[i].hopDrops
	}
	return s
}

// AttachHost registers the packet handler (NIC) for host h.
func (n *Network) AttachHost(h packet.HostID, handler Handler) {
	n.hosts[h] = handler
}

// SetTracer attaches a structured event tracer to the data plane (nil
// disables tracing, the default).
func (n *Network) SetTracer(tr *telemetry.Tracer) { n.tracer = tr }

// Switch returns the switch at node id.
func (n *Network) Switch(id topo.NodeID) *Switch { return n.switches[id] }

// Pipe returns the directed pipe of link id transmitting from node
// from, or nil when from is not an end of the link.
func (n *Network) Pipe(id topo.LinkID, from topo.NodeID) *Pipe {
	if i := n.pipeIndex(id, from); i >= 0 {
		return &n.pipes[i]
	}
	return nil
}

// pipeIndex returns the index in n.pipes of link id's direction
// transmitting from node from, or -1 when from is not an end of it.
func (n *Network) pipeIndex(id topo.LinkID, from topo.NodeID) int {
	switch l := &n.Topo.Links[id]; from {
	case l.A:
		return 2 * int(id)
	case l.B:
		return 2*int(id) + 1
	}
	return -1
}

// SendFromHost injects a packet from host h onto its access link.
func (n *Network) SendFromHost(h packet.HostID, p *packet.Packet) {
	n.Pipe(n.Topo.HostLink(h), n.Topo.HostNode(h)).Enqueue(p)
}

// deliver hands a packet that finished propagating to its next node.
// In sharded mode it always runs on the engine of node's shard (the
// pipe either scheduled it locally or routed it through the group).
func (n *Network) deliver(node topo.NodeID, p *packet.Packet) {
	nd := &n.Topo.Nodes[node]
	if nd.Kind == topo.KindHost {
		n.counterOf(node).delivered++
		if h := n.hosts[nd.Host]; h != nil {
			h.HandlePacket(p)
		}
		return
	}
	n.switches[node].forward(p)
}

// FailLink takes both directions of link id down. Switch fast-failover
// rules activate after the configured latency. On a sharded network
// link state may only change between Run calls: linkDownSince is read
// by every shard without synchronization during windows.
func (n *Network) FailLink(id topo.LinkID) {
	n.checkQuiescent("FailLink")
	if !n.LinkUp(id) {
		return
	}
	n.downSince[id] = n.now()
	n.tracer.LinkDown(n.now(), int32(id))
	n.pipes[2*id].fail()
	n.pipes[2*id+1].fail()
}

// RestoreLink brings link id back up. Like FailLink it is only legal
// between Run calls on a sharded network.
func (n *Network) RestoreLink(id topo.LinkID) {
	n.checkQuiescent("RestoreLink")
	if n.LinkUp(id) {
		return
	}
	n.downSince[id] = linkUp
	n.tracer.LinkUp(n.now(), int32(id))
	n.pipes[2*id].restore()
	n.pipes[2*id+1].restore()
}

// LinkUp reports whether link id is up.
func (n *Network) LinkUp(id topo.LinkID) bool { return n.downSince[id] == linkUp }

// checkQuiescent panics if a sharded run is in progress: callers
// mutate state every shard reads without synchronization.
func (n *Network) checkQuiescent(op string) {
	if n.group != nil && n.group.Running() {
		panic("fabric: " + op + " during a sharded run; change link state between Run calls")
	}
}

// failoverActive reports whether the fast-failover rule covering link
// id has kicked in (the link has been down for at least the failover
// latency) as of the caller's clock. Switches pass their own engine's
// now so the check is shard-local.
func (n *Network) failoverActive(id topo.LinkID, now sim.Time) bool {
	since := n.downSince[id]
	if since == linkUp {
		return false
	}
	return now >= since+n.cfg.FailoverLatency
}

// LossRate returns queue-overflow drops as a fraction of packets
// offered to switch ports (host access pipes excluded), mirroring the
// paper's switch-counter measurement.
func (n *Network) LossRate() float64 {
	var drops, enq uint64
	for i := range n.pipes {
		p := &n.pipes[i]
		if n.Topo.Nodes[p.from].Kind == topo.KindHost {
			continue
		}
		drops += p.Drops
		enq += p.EnqPackets
	}
	if enq == 0 {
		return 0
	}
	return float64(drops) / float64(enq)
}

// TelemetrySnapshot implements a telemetry probe over the data plane:
// aggregate counters plus per-link-direction transmit totals, drops,
// utilization over the run so far, and the queue-depth watermark.
func (n *Network) TelemetrySnapshot() map[string]any {
	links := make(map[string]any, len(n.pipes))
	elapsed := n.now()
	for i := range n.pipes {
		p := &n.pipes[i]
		util := 0.0
		if elapsed > 0 {
			util = float64(p.TxBytes*8) / (elapsed.Seconds() * float64(p.link.BitsPerSec))
		}
		links[fmt.Sprintf("link%d:%d->%d", p.link.ID, p.from, p.dst)] = map[string]any{
			"tx_packets":      p.TxPackets,
			"tx_bytes":        p.TxBytes,
			"drops":           p.Drops,
			"drops_down":      p.DropsDown,
			"utilization":     util,
			"max_queue_bytes": p.MaxQueuedBytes,
		}
	}
	return map[string]any{
		"delivered":  n.TotalDelivered(),
		"drops":      n.TotalDrops(),
		"drops_down": n.TotalDropsDown(),
		"hop_drops":  n.TotalHopDrops(),
		"loss_rate":  n.LossRate(),
		"links":      links,
	}
}

// String summarizes counters for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("fabric{delivered=%d drops=%d down=%d hop=%d}",
		n.TotalDelivered(), n.TotalDrops(), n.TotalDropsDown(), n.TotalHopDrops())
}
