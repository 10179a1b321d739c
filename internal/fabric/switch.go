package fabric

import (
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

// maxHops bounds forwarding steps per packet; exceeding it drops the
// packet (loop guard for pathological failure combinations).
const maxHops = 16

// Switch is one leaf or spine. It forwards on shadow-MAC labels using
// controller-installed exact-match L2 entries, and on real MACs using
// topology-derived routing with ECMP hash groups (used by the
// Presto+ECMP per-hop variant and by north-south traffic).
type Switch struct {
	net  *Network
	node topo.Node
	eng  *sim.Engine    // engine of this switch's shard
	ctr  *shardCounters // aggregate bucket of this switch's shard

	// labelTable maps shadow-MAC labels to egress links, installed by
	// the controller (§3.1: "installs the relevant forwarding rules").
	labelTable map[packet.MAC]topo.LinkID
	// numTrees is the number of allocated spanning trees, used to
	// cycle to a backup tree during fast failover.
	numTrees int

	// RxPackets counts packets this switch forwarded.
	RxPackets uint64
	// FailoverRewrites counts packets relabeled onto a backup tree by
	// the fast-failover rule.
	FailoverRewrites uint64
}

func newSwitch(n *Network, node topo.Node) *Switch {
	return &Switch{
		net:        n,
		node:       node,
		eng:        n.EngineFor(node.ID),
		ctr:        n.counterOf(node.ID),
		labelTable: make(map[packet.MAC]topo.LinkID),
	}
}

// InstallLabel adds (or replaces) a shadow-MAC forwarding entry.
func (s *Switch) InstallLabel(label packet.MAC, egress topo.LinkID) {
	s.labelTable[label] = egress
}

// SetNumTrees tells the switch how many trees exist (for backup-tree
// rewriting).
func (s *Switch) SetNumTrees(n int) { s.numTrees = n }

// LabelCount returns the number of installed label entries.
func (s *Switch) LabelCount() int { return len(s.labelTable) }

// forward switches one arriving packet.
//
//prestolint:noalloc
func (s *Switch) forward(p *packet.Packet) {
	s.RxPackets++
	p.Hops++
	if p.Hops > maxHops {
		s.ctr.hopDrops++
		return
	}
	if p.DstMAC.IsLabel() {
		s.forwardLabel(p)
		return
	}
	s.forwardRealMAC(p)
}

// labelDstLeaf resolves the destination leaf of either label kind.
func (s *Switch) labelDstLeaf(m packet.MAC) topo.NodeID {
	if m.IsTunnel() {
		return s.net.Topo.Leaves[m.TunnelLeaf()]
	}
	return s.net.Topo.LeafOf(m.Host())
}

// forwardLabel handles shadow-MAC label switching, including the fast
// failover path: when the installed egress is down and the failover
// rule has activated, the label is rewritten to a backup tree
// (pre-determined, local decision) and forwarding retries.
func (s *Switch) forwardLabel(p *packet.Packet) {
	if p.DstMAC.IsTunnel() && s.node.Kind == topo.KindLeaf &&
		s.labelDstLeaf(p.DstMAC) == s.node.ID {
		// Tunnel terminus: this is the destination edge switch —
		// forward on L3 information (§3.1), i.e. the packet's real
		// destination host.
		s.enqueue(s.net.Topo.HostLink(p.Flow.Dst.Host), p)
		return
	}
	egress, ok := s.labelTable[p.DstMAC]
	if ok {
		if s.net.LinkUp(egress) {
			s.enqueue(egress, p)
			return
		}
		if s.net.failoverActive(egress, s.eng.Now()) && s.rewriteToBackupTree(p) {
			s.FailoverRewrites++
			s.net.tracer.FailoverSwitch(s.eng.Now(), int32(s.node.ID), int32(egress), p.DstMAC.ShadowTree())
			s.forward(p)
			return
		}
		// Link down, failover not yet active (or no backup): black hole,
		// exactly what happens on hardware before the failover rule
		// fires.
		s.enqueue(egress, p)
		return
	}
	// No entry: this switch is not on the label's tree. This only
	// happens on a failover detour. Route toward the destination leaf
	// along a live shortest path if possible; otherwise hand the
	// packet to any live neighbor switch, which will route or relabel
	// it (the hop guard bounds pathological cascades).
	dstLeaf := s.labelDstLeaf(p.DstMAC)
	if s.node.ID == dstLeaf {
		// Final hop: deliver on the host port.
		host := p.Flow.Dst.Host
		if p.DstMAC.IsShadow() {
			host = p.DstMAC.Host()
		}
		s.enqueue(s.net.Topo.HostLink(host), p)
		return
	}
	for _, lid := range s.net.Topo.NextLinksTo(s.node.ID, dstLeaf) {
		if s.net.LinkUp(lid) {
			s.enqueue(lid, p)
			return
		}
	}
	for _, lid := range s.net.Topo.LinksAt(s.node.ID) {
		other := s.net.Topo.Links[lid].Other(s.node.ID)
		if s.net.Topo.Nodes[other].Kind != topo.KindHost && s.net.LinkUp(lid) {
			s.enqueue(lid, p)
			return
		}
	}
	s.ctr.hopDrops++
}

// rewriteToBackupTree rewrites the packet's label to the next tree
// that either has a live local egress or is simply different (letting
// downstream switches route it). Reports whether a rewrite happened.
func (s *Switch) rewriteToBackupTree(p *packet.Packet) bool {
	if s.numTrees <= 1 {
		return false
	}
	cur := p.DstMAC.ShadowTree()
	relabel := func(t int) packet.MAC {
		if p.DstMAC.IsTunnel() {
			return packet.TunnelMAC(p.DstMAC.TunnelLeaf(), t)
		}
		return packet.ShadowMAC(p.DstMAC.Host(), t)
	}
	// Prefer a tree whose local egress is installed and up.
	for i := 1; i < s.numTrees; i++ {
		t := (cur + i) % s.numTrees
		label := relabel(t)
		if e, ok := s.labelTable[label]; ok && s.net.LinkUp(e) {
			p.DstMAC = label
			return true
		}
	}
	// Otherwise any other tree; switches without an entry detour it.
	p.DstMAC = relabel((cur + 1) % s.numTrees)
	return true
}

// forwardRealMAC routes packets that carry the destination's real MAC:
// host port on the destination leaf, ECMP hash over live uplinks
// elsewhere. The hash covers the flow key and the flowcell ID, so the
// Presto+ECMP variant sprays flowcells per hop while plain flows stay
// pinned.
func (s *Switch) forwardRealMAC(p *packet.Packet) {
	t := s.net.Topo
	dst := p.DstMAC.Host()
	attach := t.LeafOf(dst)
	if s.node.ID == attach {
		s.enqueue(t.HostLink(dst), p)
		return
	}
	// Equal-cost next hops toward the destination's attachment point
	// (leaf for servers, spine for remote users), topology-agnostic.
	candidates := t.NextLinksTo(s.node.ID, attach)
	lid, ok := pickECMP(s.net, candidates, p, s.eng.Now())
	if !ok {
		s.ctr.hopDrops++
		return
	}
	s.enqueue(lid, p)
}

// pickECMP hashes the packet onto one of the candidate links. Links
// whose failover rule has activated are excluded from the group
// (hardware ECMP prunes dead members after detection); before
// activation, dead links still attract (and black-hole) traffic. The
// pick is the (hash mod live)-th group member in candidate order.
//
//prestolint:noalloc
func pickECMP(n *Network, candidates []topo.LinkID, p *packet.Packet, now sim.Time) (topo.LinkID, bool) {
	live := 0
	for _, c := range candidates {
		if n.ecmpMember(c, now) {
			live++
		}
	}
	if live == 0 {
		return 0, false
	}
	h := p.Flow.Hash()
	h ^= p.FlowcellID * 2654435761 // Knuth multiplicative mix
	h ^= h >> 13
	h *= 0x5bd1e995
	h ^= h >> 15
	k := int(h) % live
	for i := 0; ; i++ {
		if !n.ecmpMember(candidates[i], now) {
			continue
		}
		if k == 0 {
			return candidates[i], true
		}
		k--
	}
}

// ecmpMember reports whether link id is still in its ECMP groups: up,
// or down but not yet pruned by the failover rule.
func (n *Network) ecmpMember(id topo.LinkID, now sim.Time) bool {
	return n.LinkUp(id) || !n.failoverActive(id, now)
}

func (s *Switch) enqueue(lid topo.LinkID, p *packet.Packet) {
	s.net.Pipe(lid, s.node.ID).Enqueue(p)
}
