package fabric

import (
	"testing"
	"testing/quick"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

// collector is a test Handler recording delivered packets.
type collector struct {
	eng  *sim.Engine
	pkts []*packet.Packet
	at   []sim.Time
}

func (c *collector) HandlePacket(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.eng.Now())
}

// installTrees hand-installs label forwarding state the way the
// controller does: one shadow MAC per (host, tree) at every switch on
// the tree.
func installTrees(n *Network) []topo.Tree {
	trees := n.Topo.Trees(nil)
	for _, tr := range trees {
		for h, hostNode := range n.Topo.Hosts {
			host := n.Topo.Nodes[hostNode].Host
			label := packet.ShadowMAC(host, tr.Index)
			hostLeaf := n.Topo.LeafOf(host)
			for _, leaf := range n.Topo.Leaves {
				sw := n.Switch(leaf)
				if leaf == hostLeaf {
					sw.InstallLabel(label, n.Topo.HostLink(host))
				} else if lid, ok := tr.LeafLink[leaf]; ok {
					sw.InstallLabel(label, lid)
				}
				sw.SetNumTrees(len(trees))
			}
			if tr.Spine >= 0 && len(n.Topo.Spines) > 0 {
				sw := n.Switch(tr.Spine)
				sw.InstallLabel(label, tr.LeafLink[hostLeaf])
				sw.SetNumTrees(len(trees))
			}
			_ = h
		}
	}
	return trees
}

func testNet(t *testing.T, spines, leaves, hostsPer int) (*sim.Engine, *Network, map[packet.HostID]*collector) {
	t.Helper()
	eng := sim.NewEngine()
	tp := topo.TwoTierClos(spines, leaves, hostsPer, 1, topo.LinkConfig{})
	n := New(eng, tp, Config{})
	cols := make(map[packet.HostID]*collector)
	for i := 0; i < tp.NumHosts(); i++ {
		c := &collector{eng: eng}
		cols[packet.HostID(i)] = c
		n.AttachHost(packet.HostID(i), c)
	}
	return eng, n, cols
}

func mkPkt(src, dst packet.HostID, payload int) *packet.Packet {
	return &packet.Packet{
		SrcMAC:  packet.HostMAC(src),
		DstMAC:  packet.HostMAC(dst),
		Flow:    packet.FlowKey{Src: packet.Addr{Host: src, Port: 1000}, Dst: packet.Addr{Host: dst, Port: 2000}},
		Payload: payload,
	}
}

func TestPipeSerializationAndPropagation(t *testing.T) {
	eng, n, cols := testNet(t, 2, 2, 2)
	p := mkPkt(0, 1, 1000) // same leaf: host0 -> leaf -> host1
	n.SendFromHost(0, p)
	eng.RunAll()
	c := cols[1]
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(c.pkts))
	}
	// Wire size = payload + headers + eth overhead.
	wire := p.WireSize()
	ser := sim.Time(int64(wire) * 8 * int64(sim.Second) / 10e9)
	// host->leaf: ser+prop(500ns), leaf->host: ser+prop(500ns).
	want := 2*ser + 2*500*sim.Nanosecond
	if c.at[0] != want {
		t.Fatalf("delivery at %v, want %v", c.at[0], want)
	}
}

func TestPipeQueueOverflowDrops(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.TwoTierClos(1, 1, 3, 1, topo.LinkConfig{})
	n := New(eng, tp, Config{SwitchQueueBytes: 5000, HostQueueBytes: 1 << 20})
	c := &collector{eng: eng}
	n.AttachHost(2, c)
	// Two senders converge on host 2's port: the 2:1 incast overflows
	// the shallow output queue.
	for i := 0; i < 50; i++ {
		n.SendFromHost(0, mkPkt(0, 2, 1400))
		n.SendFromHost(1, mkPkt(1, 2, 1400))
	}
	eng.RunAll()
	if n.TotalDrops() == 0 {
		t.Fatal("expected tail drops at the shallow switch port")
	}
	if len(c.pkts)+int(n.TotalDrops()) != 100 {
		t.Fatalf("delivered %d + dropped %d != 100", len(c.pkts), n.TotalDrops())
	}
	if n.LossRate() <= 0 {
		t.Fatal("LossRate should be positive")
	}
}

func TestLabelForwardingAcrossClos(t *testing.T) {
	eng, n, cols := testNet(t, 4, 4, 4)
	trees := installTrees(n)
	if len(trees) != 4 {
		t.Fatalf("%d trees", len(trees))
	}
	// Send host 0 -> host 12 (leaf 0 -> leaf 3) over each tree.
	for _, tr := range trees {
		p := mkPkt(0, 12, 500)
		p.DstMAC = packet.ShadowMAC(12, tr.Index)
		n.SendFromHost(0, p)
	}
	eng.RunAll()
	if len(cols[12].pkts) != 4 {
		t.Fatalf("delivered %d, want 4", len(cols[12].pkts))
	}
	// Each tree's spine should have forwarded exactly one packet.
	for _, s := range n.Topo.Spines {
		if got := n.Switch(s).RxPackets; got != 1 {
			t.Errorf("spine %v forwarded %d packets, want 1", s, got)
		}
	}
	// Labels arrive intact (vSwitch, not fabric, restores real MACs).
	for _, p := range cols[12].pkts {
		if !p.DstMAC.IsShadow() {
			t.Error("fabric should not rewrite labels on delivery")
		}
	}
}

func TestRealMACForwardingECMP(t *testing.T) {
	eng, n, cols := testNet(t, 4, 2, 2)
	// host 0 (leaf 0) -> host 2 (leaf 1) with real MAC: ECMP-routed.
	for fc := uint32(0); fc < 64; fc++ {
		p := mkPkt(0, 2, 100)
		p.FlowcellID = fc
		n.SendFromHost(0, p)
	}
	eng.RunAll()
	if len(cols[2].pkts) != 64 {
		t.Fatalf("delivered %d, want 64", len(cols[2].pkts))
	}
	// Spraying on flowcell ID should hit more than one spine.
	spinesUsed := 0
	for _, s := range n.Topo.Spines {
		if n.Switch(s).RxPackets > 0 {
			spinesUsed++
		}
	}
	if spinesUsed < 2 {
		t.Fatalf("ECMP hash used %d spines, want >= 2", spinesUsed)
	}
}

func TestFailoverBlackHoleThenReroute(t *testing.T) {
	eng, n, cols := testNet(t, 2, 2, 2)
	installTrees(n)
	tree0 := n.Topo.Trees(nil)[0]
	// Fail the tree-0 link between its spine and leaf 0 at t=0.
	failed := tree0.LeafLink[n.Topo.Leaves[0]]
	n.FailLink(failed)

	// Immediately send on tree 0 from host 0 (leaf 0) to host 2
	// (leaf 1): black hole (failover not yet active).
	p1 := mkPkt(0, 2, 100)
	p1.DstMAC = packet.ShadowMAC(2, 0)
	n.SendFromHost(0, p1)
	eng.Run(1 * sim.Millisecond)
	if len(cols[2].pkts) != 0 {
		t.Fatal("packet delivered during black-hole window")
	}

	// After the failover latency (5 ms default), the leaf rewrites to
	// the backup tree and the packet gets through.
	eng.At(6*sim.Millisecond, func() {
		p2 := mkPkt(0, 2, 100)
		p2.DstMAC = packet.ShadowMAC(2, 0)
		n.SendFromHost(0, p2)
	})
	eng.RunAll()
	if len(cols[2].pkts) != 1 {
		t.Fatalf("delivered %d after failover, want 1", len(cols[2].pkts))
	}
	if got := cols[2].pkts[0].DstMAC.ShadowTree(); got != 1 {
		t.Fatalf("packet arrived on tree %d, want rewritten to 1", got)
	}
}

func TestFailoverDetourAtSpine(t *testing.T) {
	// Fail the *destination-side* downlink: sender's uplink is fine,
	// the spine must detour via another leaf.
	eng, n, cols := testNet(t, 2, 3, 1)
	installTrees(n)
	tree0 := n.Topo.Trees(nil)[0]
	dstLeaf := n.Topo.LeafOf(2) // host 2 on leaf 2
	failed := tree0.LeafLink[dstLeaf]
	n.FailLink(failed)
	eng.At(10*sim.Millisecond, func() {
		p := mkPkt(0, 2, 100)
		p.DstMAC = packet.ShadowMAC(2, 0)
		n.SendFromHost(0, p)
	})
	eng.RunAll()
	if len(cols[2].pkts) != 1 {
		t.Fatalf("delivered %d via spine detour, want 1", len(cols[2].pkts))
	}
}

func TestRestoreLink(t *testing.T) {
	eng, n, cols := testNet(t, 1, 2, 1)
	installTrees(n)
	lid := n.Topo.Trees(nil)[0].LeafLink[n.Topo.Leaves[0]]
	n.FailLink(lid)
	if n.LinkUp(lid) {
		t.Fatal("link should be down")
	}
	n.RestoreLink(lid)
	if !n.LinkUp(lid) {
		t.Fatal("link should be up")
	}
	p := mkPkt(0, 1, 100)
	p.DstMAC = packet.ShadowMAC(1, 0)
	n.SendFromHost(0, p)
	eng.RunAll()
	if len(cols[1].pkts) != 1 {
		t.Fatal("packet lost after restore")
	}
}

func TestHopGuardDropsLoops(t *testing.T) {
	eng, n, _ := testNet(t, 2, 2, 2)
	// Create an intentional two-switch label loop.
	l0, l1 := n.Topo.Leaves[0], n.Topo.Leaves[1]
	label := packet.ShadowMAC(99, 0)
	up := n.Topo.SpineLeafLinks(n.Topo.Spines[0], l0)[0]
	// leaf0 -> spine0 -> leaf0 ... : spine sends back to leaf0.
	n.Switch(l0).InstallLabel(label, up)
	n.Switch(n.Topo.Spines[0]).InstallLabel(label, up)
	_ = l1
	p := mkPkt(0, 99, 100)
	p.DstMAC = label
	n.SendFromHost(0, p)
	eng.RunAll()
	if n.TotalHopDrops() == 0 {
		t.Fatal("loop guard did not trigger")
	}
}

func TestBandwidthSharing(t *testing.T) {
	// Two senders saturating one receiver port: deliveries should be
	// spread over ~2x the serialization time of one sender's data.
	eng := sim.NewEngine()
	tp := topo.SingleSwitch(3, topo.LinkConfig{})
	n := New(eng, tp, Config{SwitchQueueBytes: 1 << 20})
	c := &collector{eng: eng}
	n.AttachHost(2, c)
	const pkts = 50
	for i := 0; i < pkts; i++ {
		n.SendFromHost(0, mkPkt(0, 2, 1400))
		n.SendFromHost(1, mkPkt(1, 2, 1400))
	}
	eng.RunAll()
	if len(c.pkts) != 2*pkts {
		t.Fatalf("delivered %d, want %d", len(c.pkts), 2*pkts)
	}
	wire := mkPkt(0, 2, 1400).WireSize()
	ser := sim.Time(int64(wire) * 8 * int64(sim.Second) / 10e9)
	minTime := ser * sim.Time(2*pkts)
	last := c.at[len(c.at)-1]
	if last < minTime {
		t.Fatalf("last delivery %v before %v: receiver port exceeded line rate", last, minTime)
	}
}

func TestRealMACForwardingToSpineHost(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.TwoTierClos(2, 2, 1, 1, topo.LinkConfig{})
	remote := tp.AddSpineHost(tp.Spines[1], 100e6, sim.Microsecond)
	n := New(eng, tp, Config{})
	c := &collector{eng: eng}
	n.AttachHost(remote, c)
	// Leaf-attached host 0 sends to the spine-attached remote user.
	n.SendFromHost(0, mkPkt(0, remote, 500))
	eng.RunAll()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d to spine host, want 1", len(c.pkts))
	}
	// And the reverse direction (remote user to server).
	c2 := &collector{eng: eng}
	n.AttachHost(0, c2)
	n.SendFromHost(remote, mkPkt(remote, 0, 500))
	eng.RunAll()
	if len(c2.pkts) != 1 {
		t.Fatalf("delivered %d from spine host, want 1", len(c2.pkts))
	}
}

// Property: packet conservation — every packet injected into the
// fabric is either delivered to a host, tail-dropped at a queue,
// black-holed by a down link, or dropped by the hop guard. Nothing
// vanishes, nothing duplicates.
func TestPacketConservationProperty(t *testing.T) {
	prop := func(seed uint64, spinesRaw, hostsRaw uint8, failSome bool) bool {
		rng := sim.NewRNG(seed)
		spines := int(spinesRaw)%4 + 1
		hostsPer := int(hostsRaw)%3 + 1
		eng := sim.NewEngine()
		tp := topo.TwoTierClos(spines, 2, hostsPer, 1, topo.LinkConfig{})
		n := New(eng, tp, Config{SwitchQueueBytes: 20_000})
		installTrees(n)
		var delivered uint64
		for i := 0; i < tp.NumHosts(); i++ {
			n.AttachHost(packet.HostID(i), handlerCount{&delivered})
		}
		if failSome {
			// Fail one fabric link mid-run.
			lid := tp.SpineLeafLinks(tp.Spines[0], tp.Leaves[0])[0]
			eng.Schedule(50*sim.Microsecond, func() { n.FailLink(lid) })
		}
		const injected = 400
		trees := tp.Trees(nil)
		for i := 0; i < injected; i++ {
			src := packet.HostID(rng.Intn(tp.NumHosts()))
			dst := packet.HostID(rng.Intn(tp.NumHosts()))
			if dst == src {
				dst = (dst + 1) % packet.HostID(tp.NumHosts())
			}
			p := mkPkt(src, dst, 1200)
			switch rng.Intn(3) {
			case 0: // real MAC, per-hop ECMP
			case 1: // label
				p.DstMAC = packet.ShadowMAC(dst, trees[rng.Intn(len(trees))].Index)
			case 2: // label with a flowcell id
				p.DstMAC = packet.ShadowMAC(dst, trees[rng.Intn(len(trees))].Index)
				p.FlowcellID = uint32(i)
			}
			at := rng.Duration(200 * sim.Microsecond)
			eng.At(at, func() { n.SendFromHost(src, p) })
		}
		eng.RunAll()
		total := delivered + n.TotalDrops() + n.TotalDropsDown() + n.TotalHopDrops()
		return total == injected
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

type handlerCount struct{ n *uint64 }

func (h handlerCount) HandlePacket(*packet.Packet) { *h.n++ }

// TestFailLinkMidFlight fails a host access link while its pipe holds
// packets in every stage: propagating, serializing and queued. Queued
// packets count as DropsDown at once; the packet on the wire counts
// when its serialization ends; the propagating packet still arrives.
func TestFailLinkMidFlight(t *testing.T) {
	eng, n, cols := testNet(t, 2, 2, 2)
	pkts := make([]*packet.Packet, 4)
	for i := range pkts {
		pkts[i] = mkPkt(0, 1, 1000) // same leaf: host0 -> leaf -> host1
		n.SendFromHost(0, pkts[i])
	}
	lid := n.Topo.HostLink(0)
	pipe := n.Pipe(lid, n.Topo.HostNode(0))
	ser := sim.Time(int64(pkts[0].WireSize()) * 8 * int64(sim.Second) / 10e9)
	// Just after the first packet leaves the wire: it propagates (500ns
	// host hop), the second serializes, two wait in the queue.
	eng.Run(ser + 100*sim.Nanosecond)
	if pipe.TxPackets != 1 || pipe.QueuedBytes() != 2*pkts[0].WireSize() {
		t.Fatalf("setup: tx %d, queued %dB", pipe.TxPackets, pipe.QueuedBytes())
	}
	n.FailLink(lid)
	if pipe.DropsDown != 2 || n.TotalDropsDown() != 2 || pipe.QueuedBytes() != 0 {
		t.Fatalf("after fail: drops_down %d (total %d), queued %dB; want the 2 queued packets dropped",
			pipe.DropsDown, n.TotalDropsDown(), pipe.QueuedBytes())
	}
	eng.RunAll()
	if pipe.DropsDown != 3 || pipe.TxPackets != 2 {
		t.Fatalf("after drain: drops_down %d tx %d; want the serializing packet counted at tx-done", pipe.DropsDown, pipe.TxPackets)
	}
	if got := cols[1].pkts; len(got) != 1 || got[0] != pkts[0] {
		t.Fatalf("host1 received %d packets, want only the one propagating at the failure", len(got))
	}
	// Restored, the pipe carries traffic again.
	n.RestoreLink(lid)
	n.SendFromHost(0, mkPkt(0, 1, 1000))
	eng.RunAll()
	if len(cols[1].pkts) != 2 {
		t.Fatalf("host1 received %d packets after restore, want 2", len(cols[1].pkts))
	}
}

// TestPickECMPMatchesFilteredGroup checks the counting pick against
// the filter-then-index formula it replaced, over every up/down and
// failover state of a four-member group, and that it never allocates.
func TestPickECMPMatchesFilteredGroup(t *testing.T) {
	eng, n, _ := testNet(t, 4, 2, 1)
	leaf := n.Topo.Leaves[0]
	cands := n.Topo.NextLinksTo(leaf, n.Topo.Leaves[1])
	if len(cands) != 4 {
		t.Fatalf("leaf has %d ECMP uplinks, want 4", len(cands))
	}
	latency := n.cfg.FailoverLatency
	reference := func(p *packet.Packet, now sim.Time) (topo.LinkID, bool) {
		var live []topo.LinkID
		for _, c := range cands {
			if n.LinkUp(c) || !n.failoverActive(c, now) {
				live = append(live, c)
			}
		}
		if len(live) == 0 {
			return 0, false
		}
		h := p.Flow.Hash()
		h ^= p.FlowcellID * 2654435761
		h ^= h >> 13
		h *= 0x5bd1e995
		h ^= h >> 15
		return live[int(h)%len(live)], true
	}
	for mask := 0; mask < 1<<len(cands); mask++ {
		for i, c := range cands {
			if mask&(1<<i) != 0 {
				n.FailLink(c)
			} else {
				n.RestoreLink(c)
			}
		}
		// Before the failover latency, dead members stay in the group;
		// after it, they are pruned.
		for _, now := range []sim.Time{eng.Now(), eng.Now() + latency} {
			for fc := uint32(0); fc < 64; fc++ {
				p := mkPkt(0, 1, 100)
				p.Flow.Src.Port = uint16(1000 + fc%7)
				p.FlowcellID = fc
				got, gotOK := pickECMP(n, cands, p, now)
				want, wantOK := reference(p, now)
				if got != want || gotOK != wantOK {
					t.Fatalf("down mask %04b, now %v, flowcell %d: pick (%d, %v), reference (%d, %v)",
						mask, now, fc, got, gotOK, want, wantOK)
				}
			}
			p := mkPkt(0, 1, 100)
			if allocs := testing.AllocsPerRun(100, func() { pickECMP(n, cands, p, now) }); allocs != 0 {
				t.Fatalf("down mask %04b: pickECMP allocated %.1f times per call", mask, allocs)
			}
		}
	}
}
