// Package nic models the host network interface and driver receive
// path: TSO segmentation on transmit (the mechanism that makes 64 KB
// flowcells cheap, §2.1), and on receive an RX ring, interrupt
// coalescing, and a CPU cost model hosting a GRO handler.
//
// The CPU model is what reproduces the paper's computational results:
// processing a poll batch occupies the (single) receive core for
//
//	PerPoll + Σ(PerPacket+handler overhead) + PerByte·bytes + PerSegment·segments
//
// of simulated time, during which the ring keeps filling; sustained
// overload overflows the ring and drops packets. The constants are
// calibrated against §5: GRO disabled caps at ≈6 Gbps at 100% CPU;
// official GRO at line rate costs ≈63%, Presto GRO ≈69% (+6%); under
// reordering, official GRO's small-segment flood burns more CPU for
// half the throughput.
package nic

import (
	"presto/internal/fabric"
	"presto/internal/gro"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/telemetry"
)

// CPUConfig sets the receive-path cost model.
type CPUConfig struct {
	PerPoll    sim.Time // fixed cost of a poll event
	PerPacket  sim.Time // driver + GRO merge work per packet
	PerSegment sim.Time // stack traversal per segment pushed up
	PerByteNs  float64  // ns of copy/checksum work per payload byte
	// PerEviction is the extra cost of a merge-failure push (stock GRO
	// ejecting a segment mid-merge: list churn, cold stack entry).
	// This is the computational half of the small-segment-flooding
	// collapse (§2.2) beyond the per-segment cost itself.
	PerEviction sim.Time
	// HandlerOverhead is extra per-packet work for the hosted GRO
	// algorithm (Presto's multi-segment bookkeeping costs ~6% at line
	// rate, Figure 6).
	HandlerOverhead sim.Time
}

// DefaultCPUConfig returns constants calibrated to the paper's
// measured operating points (see package comment).
func DefaultCPUConfig() CPUConfig {
	return CPUConfig{
		PerPoll:     2 * sim.Microsecond,
		PerPacket:   350 * sim.Nanosecond,
		PerSegment:  1100 * sim.Nanosecond,
		PerByteNs:   0.2,
		PerEviction: 3000 * sim.Nanosecond,
	}
}

// Config tunes a NIC.
type Config struct {
	RingSize      int      // RX descriptor ring, in packets
	PollBudget    int      // max packets consumed per poll (NAPI budget)
	CoalesceCount int      // interrupt after this many packets...
	CoalesceDelay sim.Time // ...or this long after the first one
	CPU           CPUConfig
}

// DefaultConfig returns 10 GbE-like settings.
func DefaultConfig() Config {
	return Config{
		RingSize:      4096,
		PollBudget:    64,
		CoalesceCount: 32,
		CoalesceDelay: 20 * sim.Microsecond,
		CPU:           DefaultCPUConfig(),
	}
}

func (c *Config) fill() {
	d := DefaultConfig()
	if c.RingSize == 0 {
		c.RingSize = d.RingSize
	}
	if c.PollBudget == 0 {
		c.PollBudget = d.PollBudget
	}
	if c.CoalesceCount == 0 {
		c.CoalesceCount = d.CoalesceCount
	}
	if c.CoalesceDelay == 0 {
		c.CoalesceDelay = d.CoalesceDelay
	}
	if c.CPU == (CPUConfig{}) {
		c.CPU = d.CPU
	}
}

// Stats counts NIC activity.
type Stats struct {
	TxSegments uint64 // TSO writes accepted
	TxPackets  uint64 // MTU packets emitted
	RxPackets  uint64 // packets accepted into the ring
	RxDrops    uint64 // ring-overflow drops (receiver livelock)
	Polls      uint64
	BusyTime   sim.Time // accumulated CPU busy time
	MaxRing    int      // RX ring occupancy watermark
}

// NIC is one host's interface. It implements fabric.Handler on the
// receive side.
type NIC struct {
	eng  *sim.Engine
	net  *fabric.Network
	host packet.HostID
	cfg  Config

	gro   gro.Handler
	stage *stagingOutput

	ring     pktRing
	batch    []*packet.Packet  // reused per-poll scratch
	staged   []*packet.Segment // segments awaiting the current poll's completion
	doneFn   func()            // pollDone bound once, so poll() doesn't allocate a closure
	busy     bool
	intTimer *sim.Timer
	intArmed bool
	tracer   *telemetry.Tracer

	Stats Stats
}

// pktRing is the RX descriptor ring: a growable circular queue whose
// push/pop are allocation-free in steady state (the backing array only
// grows, by doubling, to the high-water mark).
type pktRing struct {
	buf  []*packet.Packet // power-of-two capacity
	head int
	n    int
}

// Len returns the number of queued packets.
func (r *pktRing) Len() int { return r.n }

func (r *pktRing) push(p *packet.Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) pop() *packet.Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil // release the reference; the ring must not pin packets
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *pktRing) grow() {
	cap2 := len(r.buf) * 2
	if cap2 == 0 {
		cap2 = 64
	}
	buf := make([]*packet.Packet, cap2)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// stagingOutput buffers GRO output during a poll so delivery happens
// when the batch's CPU cost has elapsed; outside a poll (GRO hold
// timers) it forwards directly. Staging buffers are recycled across
// polls (only one poll is ever outstanding per NIC).
type stagingOutput struct {
	up      gro.Output
	buf     []*packet.Segment
	staging bool
}

func (s *stagingOutput) DeliverSegment(seg *packet.Segment) {
	if s.staging {
		s.buf = append(s.buf, seg)
		return
	}
	s.up.DeliverSegment(seg)
}

// take hands the staged segments to the caller; recycle returns the
// buffer once its segments are delivered.
func (s *stagingOutput) take() []*packet.Segment {
	b := s.buf
	s.buf = nil
	return b
}

func (s *stagingOutput) recycle(b []*packet.Segment) {
	for i := range b {
		b[i] = nil // segments live on up the stack; the buffer must not pin them
	}
	if s.buf == nil {
		s.buf = b[:0]
	}
}

// New creates a NIC for host h. makeGRO constructs the receive-offload
// handler around the NIC's staging output, which forwards to up.
func New(eng *sim.Engine, net *fabric.Network, h packet.HostID, up gro.Output, makeGRO func(out gro.Output) gro.Handler, cfg Config) *NIC {
	cfg.fill()
	n := &NIC{eng: eng, net: net, host: h, cfg: cfg}
	n.stage = &stagingOutput{up: up}
	n.gro = makeGRO(n.stage)
	n.intTimer = sim.NewTimer(eng, n.interrupt)
	n.doneFn = n.pollDone
	return n
}

// GRO returns the hosted receive-offload handler.
func (n *NIC) GRO() gro.Handler { return n.gro }

// SetTracer attaches a structured event tracer to this NIC and its GRO
// handler (nil disables, the default).
func (n *NIC) SetTracer(tr *telemetry.Tracer) {
	n.tracer = tr
	n.gro.Stats().SetTracer(tr, int32(n.host))
}

// TelemetrySnapshot implements a telemetry probe: NIC counters plus the
// hosted GRO handler's flush-reason breakdown.
func (n *NIC) TelemetrySnapshot() map[string]any {
	st := n.gro.Stats()
	return map[string]any{
		"tx_segments":   n.Stats.TxSegments,
		"tx_packets":    n.Stats.TxPackets,
		"rx_packets":    n.Stats.RxPackets,
		"rx_drops":      n.Stats.RxDrops,
		"polls":         n.Stats.Polls,
		"busy_ns":       int64(n.Stats.BusyTime),
		"max_ring":      n.Stats.MaxRing,
		"gro_packets":   st.PacketsIn,
		"gro_segments":  st.SegmentsOut,
		"gro_merges":    st.Merges,
		"gro_evictions": st.Evictions,
		"gro_reasons":   st.ReasonCounts(),
	}
}

// SendSegment performs TSO: split a ≤64 KB segment into MTU packets,
// replicating the shadow MAC and flowcell ID onto each (exactly what
// the NIC hardware does with header fields, §3.1), and inject them
// onto the host's access link.
func (n *NIC) SendSegment(seg *packet.Segment) {
	n.Stats.TxSegments++
	total := seg.Len()
	if total == 0 {
		// Pure ACK / control.
		p := &packet.Packet{
			SrcMAC: seg.SrcMAC, DstMAC: seg.DstMAC,
			Flow: seg.Flow, Seq: seg.StartSeq, Ack: seg.Ack,
			Flags: seg.Flags, Sack: seg.Sack,
			FlowcellID: seg.FlowcellID, SentAt: seg.SentAt,
			Retrans: seg.Retrans, Probe: seg.Probe,
			EchoCE: seg.EchoCE, EchoTotal: seg.EchoTotal,
		}
		n.Stats.TxPackets++
		n.net.SendFromHost(n.host, p)
		return
	}
	mss := packet.MSS
	for off := 0; off < total; off += mss {
		l := total - off
		if l > mss {
			l = mss
		}
		p := &packet.Packet{
			SrcMAC: seg.SrcMAC, DstMAC: seg.DstMAC,
			Flow: seg.Flow, Seq: seg.StartSeq + uint32(off),
			Ack: seg.Ack, Flags: seg.Flags &^ packet.FlagPSH, Payload: l,
			FlowcellID: seg.FlowcellID, SentAt: seg.SentAt,
			Retrans: seg.Retrans, Probe: seg.Probe,
		}
		if off+l == total {
			p.Flags |= seg.Flags & packet.FlagPSH
		}
		n.Stats.TxPackets++
		n.net.SendFromHost(n.host, p)
	}
}

// HandlePacket implements fabric.Handler: packets arriving from the
// wire enter the RX ring.
func (n *NIC) HandlePacket(p *packet.Packet) {
	if n.ring.Len() >= n.cfg.RingSize {
		// Receiver livelock: the CPU can't drain the ring fast enough.
		n.Stats.RxDrops++
		n.tracer.RingDrop(n.eng.Now(), int32(n.host), n.ring.Len())
		return
	}
	n.ring.push(p)
	if n.ring.Len() > n.Stats.MaxRing {
		n.Stats.MaxRing = n.ring.Len()
	}
	n.Stats.RxPackets++
	if n.busy || n.intArmed {
		if n.intArmed && n.ring.Len() >= n.cfg.CoalesceCount {
			n.intTimer.Stop()
			n.intArmed = false
			n.interrupt()
		}
		return
	}
	// Idle: arm the coalescing timer (or fire now if a burst landed).
	if n.ring.Len() >= n.cfg.CoalesceCount {
		n.interrupt()
		return
	}
	n.intArmed = true
	n.intTimer.Reset(n.cfg.CoalesceDelay)
}

// takeBatch moves up to budget packets from the ring into the reused
// scratch slice.
func (n *NIC) takeBatch(budget int) []*packet.Packet {
	if budget > n.ring.Len() {
		budget = n.ring.Len()
	}
	n.batch = n.batch[:0]
	for i := 0; i < budget; i++ {
		n.batch = append(n.batch, n.ring.pop())
	}
	return n.batch
}

// releaseBatch clears the scratch references so processed packets are
// not pinned until the next poll.
func (n *NIC) releaseBatch() {
	for i := range n.batch {
		n.batch[i] = nil
	}
	n.batch = n.batch[:0]
}

// interrupt starts a poll if the CPU is free.
func (n *NIC) interrupt() {
	n.intArmed = false
	if n.busy || n.ring.Len() == 0 {
		return
	}
	n.poll()
}

// poll consumes up to PollBudget packets, runs GRO over them, and
// occupies the CPU for the batch's modeled cost; the GRO output is
// delivered when the cost has elapsed (pollDone). If the ring is
// non-empty at completion, polling continues immediately (NAPI-style).
func (n *NIC) poll() {
	batch := n.takeBatch(n.cfg.PollBudget)
	n.Stats.Polls++
	n.busy = true

	st := n.gro.Stats()
	segsBefore := st.SegmentsOut + st.ControlOut
	evBefore := st.Evictions
	bytes := 0
	n.stage.staging = true
	for _, p := range batch {
		bytes += p.Payload
		n.gro.Receive(p)
	}
	n.gro.Flush()
	n.stage.staging = false
	segs := (st.SegmentsOut + st.ControlOut) - segsBefore
	evictions := st.Evictions - evBefore

	c := n.cfg.CPU
	cost := c.PerPoll +
		sim.Time(len(batch))*(c.PerPacket+c.HandlerOverhead) +
		sim.Time(segs)*c.PerSegment +
		sim.Time(evictions)*c.PerEviction +
		sim.Time(float64(bytes)*c.PerByteNs)
	n.Stats.BusyTime += cost
	n.releaseBatch()

	// The busy flag guarantees a single outstanding poll, so the staged
	// segments ride in a field and the completion callback is the
	// pre-bound doneFn — no per-poll closure.
	n.staged = n.stage.take()
	n.eng.Schedule(cost, n.doneFn)
}

// pollDone delivers the staged GRO output once the poll's CPU cost has
// elapsed, then decides whether to keep polling.
func (n *NIC) pollDone() {
	staged := n.staged
	n.staged = nil
	for _, seg := range staged {
		n.stage.up.DeliverSegment(seg)
	}
	n.stage.recycle(staged)
	n.busy = false
	// NAPI-style continuation: stay in polling mode only while the
	// backlog justifies it; otherwise return to interrupt
	// coalescing so batches stay large and the per-poll cost
	// amortizes.
	if n.ring.Len() >= n.cfg.CoalesceCount {
		n.poll()
	} else if n.ring.Len() > 0 && !n.intArmed {
		n.intArmed = true
		n.intTimer.Reset(n.cfg.CoalesceDelay)
	}
}

// Utilization returns the fraction of the window [since, now] the
// receive CPU was busy, given the busy time recorded at the window
// start.
func (n *NIC) Utilization(busyAtStart, windowStart sim.Time) float64 {
	elapsed := n.eng.Now() - windowStart
	if elapsed <= 0 {
		return 0
	}
	return float64(n.Stats.BusyTime-busyAtStart) / float64(elapsed)
}
