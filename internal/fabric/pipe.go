// Package fabric simulates the dynamic data plane of a topology:
// directed link queues with serialization and propagation delay,
// output-queued switches that forward on shadow-MAC labels or ECMP
// hash groups, link failures, and hardware-style fast failover
// (label-rewrite to a backup spanning tree, §3.3).
package fabric

import (
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

// Pipe is one direction of a link: an output queue draining at the
// link rate, followed by propagation delay. Packets that would
// overflow the queue are dropped (tail drop), as in the paper's
// shallow-buffered 10 GbE switches.
type Pipe struct {
	eng  *sim.Engine // engine of the transmitting end's shard
	net  *Network
	link topo.Link
	from topo.NodeID // transmitting end
	dst  topo.NodeID // receiving end
	// dstShard is the receiving end's shard when it differs from the
	// transmitting end's (-1 when both ends share an engine): delivery
	// then crosses via ShardGroup.Send instead of a local schedule.
	dstShard int
	ctr      *shardCounters // aggregate bucket of the transmitting shard

	capBytes   int
	queuedWire int // wire bytes currently queued (excluding in-flight)
	queue      sim.Ring[*packet.Packet]
	tx         *packet.Packet // packet being serialized, nil when idle
	down       bool
	// inflight holds packets propagating to a same-shard receiver, in
	// arrival order: propagation is constant per link, so deliveries
	// fire in the order they were scheduled.
	inflight sim.Ring[*packet.Packet]
	// txDoneFn and deliverFn are p.txDone and p.deliverHead bound once,
	// so scheduling a hop allocates nothing.
	txDoneFn, deliverFn func()

	// Counters (switch-counter analogues; loss rate in the paper is
	// measured from these).
	TxPackets  uint64
	TxBytes    uint64
	Drops      uint64 // tail drops
	DropsDown  uint64 // black-holed while the link was down
	EnqPackets uint64
	LastActive sim.Time
	// MaxQueuedBytes is the queue-depth watermark (wire bytes).
	MaxQueuedBytes int
}

// QueuedBytes returns the wire bytes waiting in the queue.
func (p *Pipe) QueuedBytes() int { return p.queuedWire }

// Enqueue places pkt on the output queue, dropping it if the link is
// down or the queue is full.
//
//prestolint:noalloc
func (p *Pipe) Enqueue(pkt *packet.Packet) {
	p.EnqPackets++
	if p.down {
		p.DropsDown++
		p.ctr.dropsDown++
		p.net.tracer.QueueDrop(p.eng.Now(), int32(p.link.ID), p.queuedWire, "link-down")
		return
	}
	w := pkt.WireSize()
	if p.queuedWire+w > p.capBytes {
		p.Drops++
		p.ctr.drops++
		p.net.tracer.QueueDrop(p.eng.Now(), int32(p.link.ID), p.queuedWire, "tail-drop")
		return
	}
	if t := p.net.cfg.ECNThresholdBytes; t > 0 && p.queuedWire > t &&
		p.net.Topo.Nodes[p.from].Kind != topo.KindHost {
		pkt.CE = true
	}
	p.queuedWire += w
	if p.queuedWire > p.MaxQueuedBytes {
		p.MaxQueuedBytes = p.queuedWire
	}
	p.queue.Push(pkt)
	if p.tx == nil {
		p.transmitNext()
	}
}

// transmitNext starts serializing the next queued packet, or idles the
// pipe when the queue is empty or the link is down.
//
//prestolint:noalloc
func (p *Pipe) transmitNext() {
	if p.queue.Len() == 0 || p.down {
		p.tx = nil
		return
	}
	pkt := p.queue.Pop()
	p.tx = pkt
	w := pkt.WireSize()
	p.queuedWire -= w
	ser := sim.Time(int64(w) * 8 * int64(sim.Second) / p.link.BitsPerSec)
	p.eng.Schedule(ser, p.txDoneFn)
}

// txDone finishes serializing p.tx: the packet starts propagating to
// the far end (or is black-holed if the link went down meanwhile), and
// the queue keeps draining.
//
//prestolint:noalloc
func (p *Pipe) txDone() {
	pkt := p.tx
	p.TxPackets++
	p.TxBytes += uint64(pkt.WireSize())
	p.LastActive = p.eng.Now()
	switch {
	case p.down:
		p.DropsDown++
		p.ctr.dropsDown++
	case p.dstShard < 0:
		p.inflight.Push(pkt)
		p.eng.Schedule(p.link.Propagation, p.deliverFn)
	default:
		p.sendRemote(pkt)
	}
	p.transmitNext()
}

// deliverHead hands the oldest propagating packet to the far end.
//
//prestolint:noalloc
func (p *Pipe) deliverHead() {
	p.net.deliver(p.dst, p.inflight.Pop())
}

// sendRemote delivers pkt on the receiving end's shard. It rides the
// group's handoff path with a per-packet closure: an in-flight ring
// would be touched by both shards within one window. Propagation >=
// lookahead is checked at construction, so the send is always
// window-legal.
func (p *Pipe) sendRemote(pkt *packet.Packet) {
	dst := p.dst
	p.net.group.Send(p.eng, p.dstShard, p.link.Propagation, func() { p.net.deliver(dst, pkt) })
}

// fail marks the pipe down and discards its queue. The packet being
// serialized is counted when it finishes (txDone); packets already
// propagating still arrive.
func (p *Pipe) fail() {
	p.down = true
	n := uint64(p.queue.Len())
	p.DropsDown += n
	p.ctr.dropsDown += n
	p.queue.Clear()
	p.queuedWire = 0
}

// restore brings the pipe back up.
func (p *Pipe) restore() {
	p.down = false
	if p.tx == nil {
		p.transmitNext()
	}
}
