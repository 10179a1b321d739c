package nic

import (
	"testing"

	"presto/internal/fabric"
	"presto/internal/gro"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

type segSink struct {
	segs  []*packet.Segment
	at    []sim.Time
	bytes int
}

func (s *segSink) DeliverSegment(seg *packet.Segment) {
	s.segs = append(s.segs, seg)
	s.at = append(s.at, 0)
	s.bytes += seg.Len()
}

type pktSink struct{ pkts []*packet.Packet }

func (s *pktSink) HandlePacket(p *packet.Packet) { s.pkts = append(s.pkts, p) }

func testRig(t *testing.T, cfg Config) (*sim.Engine, *fabric.Network, *NIC, *segSink) {
	t.Helper()
	eng := sim.NewEngine()
	tp := topo.SingleSwitch(2, topo.LinkConfig{})
	net := fabric.New(eng, tp, fabric.Config{})
	sink := &segSink{}
	n := New(eng, net, 0, sink, func(out gro.Output) gro.Handler {
		return gro.NewOfficial(eng, out)
	}, cfg)
	net.AttachHost(0, n)
	return eng, net, n, sink
}

func TestTSOSplitsSegmentIntoMTUPackets(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.SingleSwitch(2, topo.LinkConfig{})
	net := fabric.New(eng, tp, fabric.Config{})
	rx := &pktSink{}
	net.AttachHost(1, rx)
	n := New(eng, net, 0, &segSink{}, func(out gro.Output) gro.Handler {
		return gro.NewNone(eng, out)
	}, Config{})

	seg := &packet.Segment{
		SrcMAC: packet.HostMAC(0), DstMAC: packet.ShadowMAC(1, 3),
		Flow:     packet.FlowKey{Src: packet.Addr{Host: 0, Port: 1}, Dst: packet.Addr{Host: 1, Port: 2}},
		StartSeq: 1, EndSeq: 1 + 65536, FlowcellID: 7,
		Flags: packet.FlagACK | packet.FlagPSH,
	}
	n.SendSegment(seg)
	eng.RunAll()

	wantPkts := (65536 + packet.MSS - 1) / packet.MSS
	if len(rx.pkts) != wantPkts {
		t.Fatalf("TSO produced %d packets, want %d", len(rx.pkts), wantPkts)
	}
	total := 0
	for i, p := range rx.pkts {
		total += p.Payload
		if p.FlowcellID != 7 || p.DstMAC != seg.DstMAC {
			t.Fatalf("packet %d: flowcell/MAC not replicated", i)
		}
		if p.Seq != 1+uint32(i*packet.MSS) {
			t.Fatalf("packet %d: seq %d", i, p.Seq)
		}
		if p.Payload > packet.MSS {
			t.Fatalf("packet %d exceeds MSS", i)
		}
	}
	if total != 65536 {
		t.Fatalf("TSO total payload %d, want 65536", total)
	}
	// Only the last derived packet carries PSH.
	for i, p := range rx.pkts {
		isLast := i == len(rx.pkts)-1
		if p.Flags.Has(packet.FlagPSH) != isLast {
			t.Fatalf("PSH on packet %d (last=%v)", i, isLast)
		}
	}
}

func TestPureAckBecomesOnePacket(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.SingleSwitch(2, topo.LinkConfig{})
	net := fabric.New(eng, tp, fabric.Config{})
	rx := &pktSink{}
	net.AttachHost(1, rx)
	n := New(eng, net, 0, &segSink{}, func(out gro.Output) gro.Handler {
		return gro.NewNone(eng, out)
	}, Config{})
	n.SendSegment(&packet.Segment{
		SrcMAC: packet.HostMAC(0), DstMAC: packet.HostMAC(1),
		Flow:     packet.FlowKey{Src: packet.Addr{Host: 0, Port: 1}, Dst: packet.Addr{Host: 1, Port: 2}},
		StartSeq: 10, EndSeq: 10, Flags: packet.FlagACK, Ack: 999,
		Sack: []packet.SackBlock{{Start: 1, End: 2}},
	})
	eng.RunAll()
	if len(rx.pkts) != 1 || rx.pkts[0].Payload != 0 || rx.pkts[0].Ack != 999 || len(rx.pkts[0].Sack) != 1 {
		t.Fatalf("pure ACK mangled: %+v", rx.pkts)
	}
}

func TestInterruptCoalescingByDelay(t *testing.T) {
	eng, _, n, sink := testRig(t, Config{CoalesceCount: 1000, CoalesceDelay: 30 * sim.Microsecond})
	p := &packet.Packet{
		Flow: packet.FlowKey{Src: packet.Addr{Host: 1, Port: 1}, Dst: packet.Addr{Host: 0, Port: 2}},
		Seq:  1, Payload: 1000, Flags: packet.FlagACK,
	}
	n.HandlePacket(p)
	eng.Run(29 * sim.Microsecond)
	if len(sink.segs) != 0 {
		t.Fatal("segment delivered before coalesce delay")
	}
	eng.RunAll()
	if len(sink.segs) != 1 {
		t.Fatalf("delivered %d segments, want 1", len(sink.segs))
	}
	if n.Stats.Polls != 1 {
		t.Fatalf("polls = %d, want 1", n.Stats.Polls)
	}
}

func TestInterruptCoalescingByCount(t *testing.T) {
	eng, _, n, sink := testRig(t, Config{CoalesceCount: 8, CoalesceDelay: sim.Second})
	for i := 0; i < 8; i++ {
		n.HandlePacket(&packet.Packet{
			Flow: packet.FlowKey{Src: packet.Addr{Host: 1, Port: 1}, Dst: packet.Addr{Host: 0, Port: 2}},
			Seq:  uint32(1 + i*1000), Payload: 1000, Flags: packet.FlagACK,
		})
	}
	eng.Run(sim.Millisecond) // well before the 1s delay
	if len(sink.segs) == 0 {
		t.Fatal("count-triggered interrupt did not fire")
	}
}

func TestCPUModelCapsPerPacketProcessing(t *testing.T) {
	// Feed MTU packets at 10 Gbps through a None (GRO-disabled)
	// handler: the calibrated CPU model must cap goodput around
	// 5.5-7 Gbps with ring drops (the paper's no-TSO/no-GRO wall).
	eng := sim.NewEngine()
	tp := topo.SingleSwitch(2, topo.LinkConfig{})
	net := fabric.New(eng, tp, fabric.Config{})
	sink := &segSink{}
	n := New(eng, net, 0, sink, func(out gro.Output) gro.Handler {
		return gro.NewNone(eng, out)
	}, Config{})
	net.AttachHost(0, n)

	interval := sim.Time(1230) // ~1.23us per 1538B wire packet = 10 Gbps
	const dur = 50 * sim.Millisecond
	var emit func(i int)
	seq := uint32(1)
	emit = func(i int) {
		p := &packet.Packet{
			Flow: packet.FlowKey{Src: packet.Addr{Host: 1, Port: 1}, Dst: packet.Addr{Host: 0, Port: 2}},
			Seq:  seq, Payload: packet.MSS, Flags: packet.FlagACK,
		}
		seq += uint32(packet.MSS)
		n.HandlePacket(p)
		if eng.Now() < dur {
			eng.Schedule(interval, func() { emit(i + 1) })
		}
	}
	eng.Schedule(0, func() { emit(0) })
	eng.Run(dur + 10*sim.Millisecond)

	gbps := float64(sink.bytes) * 8 / (dur + 10*sim.Millisecond).Seconds() / 1e9
	if gbps < 4.5 || gbps > 7.5 {
		t.Fatalf("per-packet goodput = %.2f Gbps, want the 5.5-7 Gbps wall", gbps)
	}
	if n.Stats.RxDrops == 0 {
		t.Fatal("overload should overflow the RX ring")
	}
	util := float64(n.Stats.BusyTime) / float64(eng.Now())
	if util < 0.9 {
		t.Fatalf("CPU util = %.2f, want ~1.0 under overload", util)
	}
}

func TestCPUModelLineRateWithGRO(t *testing.T) {
	// Same 10 Gbps in-order feed through official GRO: merging into
	// large segments keeps the CPU well under 100% with no drops.
	eng, _, n, sink := testRig(t, Config{})
	interval := sim.Time(1230)
	const dur = 50 * sim.Millisecond
	seq := uint32(1)
	var emit func()
	emit = func() {
		n.HandlePacket(&packet.Packet{
			Flow: packet.FlowKey{Src: packet.Addr{Host: 1, Port: 1}, Dst: packet.Addr{Host: 0, Port: 2}},
			Seq:  seq, Payload: packet.MSS, Flags: packet.FlagACK, FlowcellID: seq / 65536,
		})
		seq += uint32(packet.MSS)
		if eng.Now() < dur {
			eng.Schedule(interval, emit)
		}
	}
	eng.Schedule(0, emit)
	eng.Run(dur + 5*sim.Millisecond)

	if n.Stats.RxDrops != 0 {
		t.Fatalf("%d ring drops at line rate with GRO", n.Stats.RxDrops)
	}
	util := float64(n.Stats.BusyTime) / float64(eng.Now())
	if util < 0.4 || util > 0.85 {
		t.Fatalf("CPU util with GRO = %.2f, want roughly 0.6-0.7", util)
	}
	// Average delivered segment size must be much larger than one MTU.
	if avg := float64(sink.bytes) / float64(len(sink.segs)); avg < 4*float64(packet.MSS) {
		t.Fatalf("mean segment %v bytes — GRO not merging", avg)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	eng, _, n, _ := testRig(t, Config{RingSize: 16, CoalesceCount: 1000, CoalesceDelay: sim.Second})
	for i := 0; i < 40; i++ {
		n.HandlePacket(&packet.Packet{
			Flow: packet.FlowKey{Src: packet.Addr{Host: 1, Port: 1}, Dst: packet.Addr{Host: 0, Port: 2}},
			Seq:  uint32(1 + i*1000), Payload: 1000, Flags: packet.FlagACK,
		})
	}
	if n.Stats.RxDrops != 24 {
		t.Fatalf("drops = %d, want 24", n.Stats.RxDrops)
	}
	_ = eng
}

func TestPollDelaysDeliveryByCPUCost(t *testing.T) {
	// Segments must reach the stack only after the poll's CPU cost has
	// elapsed, in arrival order.
	eng, _, n, sink := testRig(t, Config{CoalesceCount: 4, CoalesceDelay: sim.Second})
	for i := 0; i < 4; i++ {
		n.HandlePacket(&packet.Packet{
			Flow: packet.FlowKey{Src: packet.Addr{Host: 1, Port: 1}, Dst: packet.Addr{Host: 0, Port: 2}},
			Seq:  uint32(1 + i*packet.MSS), Payload: packet.MSS, Flags: packet.FlagACK,
		})
	}
	// Count-triggered poll at t=0; deliveries land at t=cost>0.
	if len(sink.segs) != 0 {
		t.Fatal("segments delivered before CPU cost elapsed")
	}
	eng.RunAll()
	if len(sink.segs) == 0 {
		t.Fatal("segments never delivered")
	}
	if eng.Now() <= 0 {
		t.Fatal("no simulated CPU time consumed")
	}
	if n.Stats.BusyTime <= 0 {
		t.Fatal("busy time not accounted")
	}
}

func TestUtilizationWindow(t *testing.T) {
	eng, _, n, _ := testRig(t, Config{})
	start := eng.Now()
	busy0 := n.Stats.BusyTime
	for i := 0; i < 64; i++ {
		n.HandlePacket(&packet.Packet{
			Flow: packet.FlowKey{Src: packet.Addr{Host: 1, Port: 1}, Dst: packet.Addr{Host: 0, Port: 2}},
			Seq:  uint32(1 + i*packet.MSS), Payload: packet.MSS, Flags: packet.FlagACK,
		})
	}
	eng.RunAll()
	u := n.Utilization(busy0, start)
	if u <= 0 || u > 1.01 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestEvictionCostCharged(t *testing.T) {
	// Reordered packets through official GRO must cost more CPU than
	// the same packets in order.
	run := func(reorder bool) sim.Time {
		eng, _, n, _ := testRig(t, Config{CoalesceCount: 8, CoalesceDelay: sim.Second})
		seqs := []int{0, 1, 2, 3, 4, 5, 6, 7}
		if reorder {
			seqs = []int{0, 4, 1, 5, 2, 6, 3, 7}
		}
		for _, i := range seqs {
			n.HandlePacket(&packet.Packet{
				Flow: packet.FlowKey{Src: packet.Addr{Host: 1, Port: 1}, Dst: packet.Addr{Host: 0, Port: 2}},
				Seq:  uint32(1 + i*packet.MSS), Payload: packet.MSS, Flags: packet.FlagACK,
				FlowcellID: uint32(i / 4),
			})
		}
		eng.RunAll()
		return n.Stats.BusyTime
	}
	inOrder, reordered := run(false), run(true)
	if reordered <= inOrder {
		t.Fatalf("reordered batch cost %v <= in-order %v", reordered, inOrder)
	}
}
