package workload

import (
	"testing"

	"presto/internal/cluster"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

func testCluster(scheme cluster.Scheme, seed uint64) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Topology: topo.TwoTierClos(2, 2, 2, 1, topo.LinkConfig{}),
		Scheme:   scheme,
		Seed:     seed,
	})
}

func TestStridePairs(t *testing.T) {
	c := testCluster(cluster.Presto, 1)
	e := Stride(c, 2)
	if len(e.Conns) != 4 {
		t.Fatalf("%d flows", len(e.Conns))
	}
	c.Eng.Run(30 * sim.Millisecond)
	tputs := e.Throughputs(c.Eng.Now())
	for i, g := range tputs {
		if g < 1 {
			t.Errorf("flow %d at %.2f Gbps", i, g)
		}
	}
	if e.Fairness(c.Eng.Now()) < 0.8 {
		t.Errorf("stride fairness %.2f", e.Fairness(c.Eng.Now()))
	}
}

func TestRandomBijectionCrossPod(t *testing.T) {
	c := testCluster(cluster.Presto, 2)
	e := RandomBijection(c, c.RNG())
	seenDst := map[packet.HostID]bool{}
	for _, conn := range e.Conns {
		if c.Topo.SameLeaf(conn.Src, conn.Dst) {
			t.Fatal("bijection assigned a same-pod destination")
		}
		if seenDst[conn.Dst] {
			t.Fatal("bijection reused a destination")
		}
		seenDst[conn.Dst] = true
	}
}

func TestRandomWorkloadCrossPod(t *testing.T) {
	c := testCluster(cluster.ECMP, 3)
	e := Random(c, c.RNG())
	if len(e.Conns) != 4 {
		t.Fatalf("%d flows", len(e.Conns))
	}
	for _, conn := range e.Conns {
		if c.Topo.SameLeaf(conn.Src, conn.Dst) {
			t.Fatal("random workload assigned a same-pod destination")
		}
	}
}

func TestElephantBaselineReset(t *testing.T) {
	c := testCluster(cluster.Presto, 4)
	e := Stride(c, 2)
	c.Eng.Run(20 * sim.Millisecond)
	e.ResetBaseline(c.Eng.Now())
	if got := e.Mean(c.Eng.Now() + 1); got > 0.1 {
		t.Fatalf("throughput right after reset = %v", got)
	}
	c.Eng.Run(40 * sim.Millisecond)
	if got := e.Mean(c.Eng.Now()); got < 1 {
		t.Fatalf("throughput after reset window = %v", got)
	}
}

func TestShuffleCompletesTransfers(t *testing.T) {
	c := testCluster(cluster.Presto, 5)
	sh := StartShuffle(c, c.RNG(), 200_000)
	c.Eng.Run(100 * sim.Millisecond)
	done, total := sh.Done()
	if total != 4*3 {
		t.Fatalf("total transfers = %d, want 12", total)
	}
	if done < total {
		t.Fatalf("only %d/%d transfers completed", done, total)
	}
	if sh.BytesMoved() < uint64(total)*200_000 {
		t.Fatalf("moved %d bytes", sh.BytesMoved())
	}
}

func TestMiceFCTs(t *testing.T) {
	c := testCluster(cluster.Presto, 6)
	pairs := [][2]packet.HostID{{0, 2}, {1, 3}}
	res := StartMice(c, pairs, 50_000, 100, 5*sim.Millisecond, 50*sim.Millisecond)
	c.Eng.Run(80 * sim.Millisecond)
	if res.Finished < 10 {
		t.Fatalf("finished %d mice (started %d)", res.Finished, res.Started)
	}
	if res.FCT.Median() <= 0 || res.FCT.Median() > 5 {
		t.Fatalf("idle mice median FCT = %vms", res.FCT.Median())
	}
}

func TestProbersCollect(t *testing.T) {
	c := testCluster(cluster.Presto, 7)
	ps := StartProbers(c, [][2]packet.HostID{{0, 2}}, sim.Millisecond)
	c.Eng.Run(20 * sim.Millisecond)
	d := CollectRTT(ps)
	if d.N() < 10 {
		t.Fatalf("%d RTT samples", d.N())
	}
}

func TestFlowSizeDistShape(t *testing.T) {
	f := NewFlowSizeDist(sim.NewRNG(1), 1)
	var mice, eleph, total int
	var bytes, elephBytes float64
	const n = 50_000
	for i := 0; i < n; i++ {
		s := f.Sample()
		total++
		bytes += float64(s)
		if s < 100_000 {
			mice++
		}
		if s > 1_000_000 {
			eleph++
			elephBytes += float64(s)
		}
	}
	// The decomposition the paper relies on: the overwhelming
	// majority of flows are mice, the majority of bytes come from
	// elephants ([5, 11, 33]).
	if frac := float64(mice) / n; frac < 0.75 {
		t.Fatalf("mice fraction = %.2f, want > 0.75", frac)
	}
	if frac := elephBytes / bytes; frac < 0.5 {
		t.Fatalf("elephant byte share = %.2f, want > 0.5", frac)
	}
}

func TestFlowSizeScale(t *testing.T) {
	a := NewFlowSizeDist(sim.NewRNG(9), 1)
	b := NewFlowSizeDist(sim.NewRNG(9), 10)
	for i := 0; i < 100; i++ {
		x, y := a.Sample(), b.Sample()
		if y < x {
			t.Fatalf("scaled sample %d < unscaled %d", y, x)
		}
	}
}

func TestTraceWorkloadRuns(t *testing.T) {
	c := testCluster(cluster.Presto, 8)
	res := StartTrace(c, c.RNG(), 2*sim.Millisecond, 1, 40*sim.Millisecond)
	c.Eng.Run(100 * sim.Millisecond)
	if res.Flows < 20 {
		t.Fatalf("only %d flows started", res.Flows)
	}
	if res.MiceFCT.N() == 0 {
		t.Fatal("no mice completed")
	}
}

func TestNorthSouthTraffic(t *testing.T) {
	tp := topo.TwoTierClos(2, 2, 2, 1, topo.LinkConfig{})
	var remotes []packet.HostID
	for _, s := range tp.Spines {
		remotes = append(remotes, tp.AddSpineHost(s, 100e6, 5*sim.Microsecond))
	}
	c := cluster.New(cluster.Config{Topology: tp, Scheme: cluster.Presto, Seed: 9})
	StartNorthSouth(c, c.RNG(), remotes, 2*sim.Millisecond, 30*sim.Millisecond)
	c.Eng.Run(60 * sim.Millisecond)
	// Remote users must have received traffic through the spines.
	got := uint64(0)
	for _, r := range remotes {
		got += c.Hosts[r].NIC.Stats.RxPackets
	}
	if got == 0 {
		t.Fatal("no north-south packets delivered")
	}
}

func TestRandomWorkloadOnSingleSwitch(t *testing.T) {
	// Regression: the Optimal baseline (all hosts on one switch) must
	// not spin forever looking for a cross-pod destination.
	c := cluster.New(cluster.Config{
		Topology: topo.SingleSwitch(8, topo.LinkConfig{}),
		Scheme:   cluster.ECMP,
		Seed:     5,
	})
	e := Random(c, c.RNG())
	if len(e.Conns) != 8 {
		t.Fatalf("%d flows", len(e.Conns))
	}
	for _, conn := range e.Conns {
		if conn.Src == conn.Dst {
			t.Fatal("self-flow on single switch")
		}
	}
	b := RandomBijection(c, c.RNG())
	if len(b.Conns) != 8 {
		t.Fatalf("bijection %d flows", len(b.Conns))
	}
	res := StartTrace(c, c.RNG(), 2*sim.Millisecond, 1, 10*sim.Millisecond)
	c.Eng.Run(20 * sim.Millisecond)
	if res.Flows == 0 {
		t.Fatal("trace workload idle on single switch")
	}
}

func TestDegenerateTopologiesCannotHangWorkloads(t *testing.T) {
	// Regression: a topology where the cross-pod constraint is
	// unsatisfiable — two leaves but every non-remote server on one of
	// them — used to spin forever in the draw-until-valid loops. All
	// generators must terminate with bounded, deterministic fallbacks.
	top := topo.TwoTierClos(1, 2, 1, 1, topo.LinkConfig{})
	top.MarkRemote(packet.HostID(1)) // leaves host 0 as the only server
	c := cluster.New(cluster.Config{Topology: top, Scheme: cluster.Presto, Seed: 7})

	if e := Random(c, c.RNG()); len(e.Conns) != 0 {
		t.Fatalf("Random on a 1-server topology opened %d flows, want 0", len(e.Conns))
	}
	if e := RandomBijection(c, c.RNG()); len(e.Conns) != 0 {
		t.Fatalf("RandomBijection on a 1-server topology opened %d flows, want 0", len(e.Conns))
	}
	res := StartTrace(c, c.RNG(), sim.Millisecond, 1, 5*sim.Millisecond)
	c.Eng.Run(10 * sim.Millisecond)
	if res.Flows != 0 {
		t.Fatalf("trace generator opened %d flows with no valid destination", res.Flows)
	}
}

func TestCrossPodPermutationDerangementFallback(t *testing.T) {
	// Three servers, two of them sharing a leaf: no permutation can be
	// fully cross-pod (pigeonhole), so the fallback derangement must
	// kick in — deterministic, and free of fixed points.
	top := topo.TwoTierClos(1, 2, 1, 1, topo.LinkConfig{})
	top.AddLeafHost(top.Leaves[0], 10_000_000_000, 0) // host 2 joins leaf 0
	c := cluster.New(cluster.Config{Topology: top, Scheme: cluster.Presto, Seed: 11})

	p := CrossPodPermutation(c, c.RNG(), 3)
	q := CrossPodPermutation(c, c.RNG(), 3)
	for i := range p {
		if p[i] == i {
			t.Fatalf("fallback permutation %v has a fixed point at %d", p, i)
		}
		if p[i] != q[i] {
			t.Fatalf("fallback not deterministic: %v vs %v", p, q)
		}
	}
}
