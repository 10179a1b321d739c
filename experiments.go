package presto

import (
	"sort"

	"presto/internal/cluster"
	"presto/internal/metrics"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/telemetry"
	"presto/internal/topo"
	"presto/internal/workload"
)

// WorkloadKind selects one of §4's synthetic traffic patterns.
type WorkloadKind int

// The synthetic workloads of §4.
const (
	Stride WorkloadKind = iota
	Shuffle
	Random
	Bijection
)

func (w WorkloadKind) String() string {
	switch w {
	case Stride:
		return "stride"
	case Shuffle:
		return "shuffle"
	case Random:
		return "random"
	case Bijection:
		return "bijection"
	}
	return "?"
}

// LoadResult is the common output of throughput/latency experiments.
type LoadResult struct {
	System       System
	Seed         uint64        // the RNG seed the run used (replay: pass it back via Options.Seed)
	MeanTput     float64       // average per-flow goodput, Gbps
	RTT          *metrics.Dist // probe round-trip times, ms
	FCT          *metrics.Dist // mice flow completion times, ms
	LossRate     float64       // switch-counter loss fraction
	Fairness     float64       // Jain's index over elephant goodputs
	MiceTimeouts int           // mice that hit an RTO

	// Telemetry is the run's component snapshot (nil unless
	// Options.Telemetry was set).
	Telemetry *telemetry.Snapshot
}

// RunScalability runs the Figure 4a benchmark (Figures 7, 8, 9): as
// many host pairs as spine paths, each pair an elephant, with RTT
// probes and switch loss counters.
func RunScalability(sys System, paths int, opt Options) LoadResult {
	opt.fill()
	tp := topoFor(sys, func() *topo.Topology { return ScalabilityTopo(paths) })
	c := buildCluster(sys, tp, opt)
	el := workload.PairsN(c, paths)
	probers := workload.StartProbers(c, pairsOf(el), opt.ProbeInterval)
	return measureLoad(sys, c, el, probers, nil, opt)
}

// RunOversubscription runs the Figure 4b benchmark (Figures 10, 11,
// 12): 2 spines, `flows` pairs, oversubscription = flows/2.
func RunOversubscription(sys System, flows int, opt Options) LoadResult {
	opt.fill()
	tp := topoFor(sys, func() *topo.Topology { return OversubTopo(flows) })
	c := buildCluster(sys, tp, opt)
	el := workload.PairsN(c, flows)
	probers := workload.StartProbers(c, pairsOf(el), opt.ProbeInterval)
	return measureLoad(sys, c, el, probers, nil, opt)
}

// ShuffleBytes is the per-peer transfer size for the shuffle workload
// (the paper moves 1 GB per peer over 10 s; the simulator's shorter
// window moves proportionally less).
const ShuffleBytes = 8 << 20

// RunWorkload runs a synthetic workload on the 16-host testbed
// (Figures 13, 14, 15, 16): elephants per the pattern, 50 KB mice with
// application-level ACKs, and RTT probes.
func RunWorkload(sys System, kind WorkloadKind, opt Options) LoadResult {
	opt.fill()
	tp := topoFor(sys, Testbed)
	c := buildCluster(sys, tp, opt)

	var el *workload.Elephants
	var sh *workload.Shuffle
	switch kind {
	case Stride:
		el = workload.Stride(c, 8)
	case Random:
		el = workload.Random(c, c.RNG())
	case Bijection:
		el = workload.RandomBijection(c, c.RNG())
	case Shuffle:
		sh = workload.StartShuffle(c, c.RNG(), ShuffleBytes)
	}

	micePairs := hostPairs(16, 8)
	if el != nil {
		micePairs = pairsOf(el)
	}
	probers := workload.StartProbers(c, micePairs, opt.ProbeInterval)
	mice := workload.StartMice(c, micePairs, opt.MiceSize, opt.MiceResp, opt.MiceInterval, opt.Warmup+opt.Duration)

	res := measureLoad(sys, c, el, probers, mice, opt)
	if sh != nil {
		res.MeanTput = sh.Tputs.Mean()
		res.Fairness = metrics.JainIndex(sh.Tputs.Samples())
	}
	return res
}

// measureLoad warms up, measures for the duration, and harvests
// metrics.
func measureLoad(sys System, c *cluster.Cluster, el *workload.Elephants, probers []*cluster.Prober, mice *workload.MiceResult, opt Options) LoadResult {
	c.Eng.Run(opt.Warmup)
	if el != nil {
		el.ResetBaseline(c.Eng.Now())
	}
	c.Eng.Run(opt.Warmup + opt.Duration)
	res := LoadResult{System: sys, Seed: opt.Seed, LossRate: c.Net.LossRate(), Fairness: 1}
	if el != nil {
		res.MeanTput = el.Mean(c.Eng.Now())
		res.Fairness = el.Fairness(c.Eng.Now())
	}
	res.RTT = workload.CollectRTT(probers)
	if mice != nil {
		res.FCT = &mice.FCT
		res.MiceTimeouts = mice.Timeouts
	}
	res.Telemetry = c.Telemetry().Snapshot(c.Eng.Now())
	return res
}

func pairsOf(el *workload.Elephants) [][2]packet.HostID {
	out := make([][2]packet.HostID, 0, len(el.Conns))
	for _, c := range el.Conns {
		out = append(out, [2]packet.HostID{c.Src, c.Dst})
	}
	return out
}

// GROResult is the Figure 5 microbenchmark output.
type GROResult struct {
	Official bool
	Seed     uint64 // RNG seed of the run
	// OOOCounts is the per-flowcell out-of-order segment count
	// distribution exposed to TCP (Figure 5a; all-zero = masked).
	OOOCounts *metrics.Dist
	// SegSizes is the distribution of segment sizes pushed up the
	// stack, in KB (Figure 5b).
	SegSizes *metrics.Dist
	MeanTput float64 // Gbps
	CPUUtil  float64 // receiver CPU utilization
}

// RunGROMicrobench reproduces Figure 5: two flows sprayed over two
// paths (Figure 4b topology), received through official or Presto
// GRO.
func RunGROMicrobench(official bool, opt Options) GROResult {
	opt.fill()
	kind := cluster.GROPresto
	if official {
		kind = cluster.GROOfficial
	}
	c := cluster.New(cluster.Config{
		Topology:        OversubTopo(2),
		Scheme:          cluster.Presto,
		Seed:            opt.Seed,
		GRO:             kind,
		RecordFlowcells: true,
	})
	el := workload.PairsN(c, 2)
	c.Eng.Run(opt.Warmup)
	el.ResetBaseline(c.Eng.Now())
	busy0 := make([]sim.Time, len(el.Conns))
	for i, conn := range el.Conns {
		busy0[i] = c.Hosts[conn.Dst].NIC.Stats.BusyTime
		// Measure reordering over steady state, like the paper's runs:
		// slow-start overshoot during warmup is excluded.
		conn.Receiver().ResetFlowcellLog()
	}
	start := c.Eng.Now()
	c.Eng.Run(opt.Warmup + opt.Duration)

	res := GROResult{Official: official, Seed: opt.Seed, OOOCounts: &metrics.Dist{}, SegSizes: &metrics.Dist{}}
	res.MeanTput = el.Mean(c.Eng.Now())
	var util float64
	for i, conn := range el.Conns {
		for _, n := range conn.Receiver().OutOfOrderCounts() {
			res.OOOCounts.Add(float64(n))
		}
		st := c.Hosts[conn.Dst].NIC.GRO().Stats()
		for _, v := range st.SegSizes.Samples() {
			res.SegSizes.Add(v / 1024)
		}
		util += c.Hosts[conn.Dst].NIC.Utilization(busy0[i], start)
	}
	res.CPUUtil = util / float64(len(el.Conns))
	return res
}

// CPUResult is the Figure 6 output: receiver CPU utilization over
// time at line rate.
type CPUResult struct {
	Presto   bool
	Seed     uint64         // RNG seed of the run
	Series   metrics.Series // (seconds, mean receiver utilization)
	Mean     float64
	MeanTput float64
}

// RunCPUOverhead reproduces Figure 6: stride at line rate; Presto
// (spraying + Presto GRO on the Clos) versus official GRO with no
// reordering (same stride on the non-blocking switch). Utilization is
// sampled periodically across all receivers.
func RunCPUOverhead(prestoGRO bool, opt Options) CPUResult {
	opt.fill()
	sys := SysPresto
	if !prestoGRO {
		sys = SysOptimal
	}
	tp := topoFor(sys, Testbed)
	c := buildCluster(sys, tp, opt)
	el := workload.Stride(c, 8)

	res := CPUResult{Presto: prestoGRO, Seed: opt.Seed}
	sample := 10 * sim.Millisecond
	lastBusy := make([]sim.Time, len(c.Hosts))
	var tick func()
	tick = func() {
		now := c.Eng.Now()
		if now >= opt.Warmup {
			var u float64
			for i, h := range c.Hosts {
				u += float64(h.NIC.Stats.BusyTime-lastBusy[i]) / float64(sample)
			}
			res.Series.Add(now.Seconds(), u/float64(len(c.Hosts))*100)
		}
		for i, h := range c.Hosts {
			lastBusy[i] = h.NIC.Stats.BusyTime
		}
		if now < opt.Warmup+opt.Duration {
			c.Eng.Schedule(sample, tick)
		}
	}
	c.Eng.Schedule(sample, tick)

	c.Eng.Run(opt.Warmup)
	el.ResetBaseline(c.Eng.Now())
	c.Eng.Run(opt.Warmup + opt.Duration)
	res.Mean = res.Series.Mean()
	res.MeanTput = el.Mean(c.Eng.Now())
	return res
}

// FlowletSizeResult is the Figure 1 output.
type FlowletSizeResult struct {
	Competing int
	Seed      uint64 // RNG seed of the run
	// TopSizes holds the ten largest flowlet sizes in MB, descending.
	TopSizes []float64
	// LargestFraction is the share of the transfer carried by the
	// single largest flowlet.
	LargestFraction float64
	// Count is the total number of flowlets.
	Count int
}

// RunFlowletSizes reproduces Figure 1: a large transfer to a receiver
// shared with `competing` background elephants on a single switch,
// chopped into flowlets by the given inactivity gap.
func RunFlowletSizes(competing int, gap sim.Time, transferBytes int, opt Options) FlowletSizeResult {
	opt.fill()
	c := cluster.New(cluster.Config{
		Topology:     OptimalTopo(2 + competing),
		Scheme:       cluster.Flowlet,
		SchemeParams: map[string]string{"gap": gap.AsDuration().String()},
		Seed:         opt.Seed,
	})
	// Background elephants from hosts 2.. to the shared receiver 1.
	for i := 0; i < competing; i++ {
		bg := c.Dial(packet.HostID(2+i), 1)
		bg.SetUnlimited(true)
	}
	conn := c.Dial(0, 1)
	// The background elephants never finish; stop the engine when the
	// measured transfer has fully arrived.
	conn.OnDelivered = func(total uint64) {
		if total >= uint64(transferBytes) {
			c.Eng.Stop()
		}
	}
	conn.Write(transferBytes)
	c.Eng.RunAll()

	fl := c.Hosts[0].VS.Policy().(interface {
		FlowletSizes(packet.FlowKey) []int
	})
	sizes := fl.FlowletSizes(conn.Flows()[0])
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	res := FlowletSizeResult{Competing: competing, Seed: opt.Seed, Count: len(sizes)}
	total := 0
	for _, s := range sizes {
		total += s
	}
	for i, s := range sizes {
		if i >= 10 {
			break
		}
		res.TopSizes = append(res.TopSizes, float64(s)/1e6)
	}
	if total > 0 && len(sizes) > 0 {
		res.LargestFraction = float64(sizes[0]) / float64(total)
	}
	return res
}

// TraceResult is the Table 1 output.
type TraceResult struct {
	System       System
	Seed         uint64        // RNG seed of the run
	MiceFCT      *metrics.Dist // ms
	ElephantTput float64       // mean Gbps of >1 MB flows
	Flows        int
}

// TraceInterarrival is the default per-host mean flow inter-arrival
// for the trace-driven workload.
const TraceInterarrival = 4 * sim.Millisecond

// RunTrace reproduces the Table 1 trace-driven workload: heavy-tailed
// flow sizes (×10 scaling, §6) from every server to random cross-rack
// destinations.
func RunTrace(sys System, opt Options) TraceResult {
	opt.fill()
	tp := topoFor(sys, Testbed)
	c := buildCluster(sys, tp, opt)
	until := opt.Warmup + opt.Duration
	tr := workload.StartTrace(c, c.RNG(), TraceInterarrival, 10, until)
	c.Eng.Run(until + 100*sim.Millisecond) // drain stragglers
	return TraceResult{
		System:       sys,
		Seed:         opt.Seed,
		MiceFCT:      &tr.MiceFCT,
		ElephantTput: tr.ElephantTps.Mean(),
		Flows:        tr.Flows,
	}
}

// NorthSouthResult is the Table 2 output.
type NorthSouthResult struct {
	System       System
	Seed         uint64        // RNG seed of the run
	MiceFCT      *metrics.Dist // east-west mice, ms
	MeanTput     float64       // east-west elephants, Gbps
	MiceTimeouts int
}

// RunNorthSouth reproduces Table 2: one 100 Mbps remote user per
// spine, every server firing north-south flows every millisecond
// (ECMP-routed per hop), under a stride east-west workload.
func RunNorthSouth(sys System, opt Options) NorthSouthResult {
	opt.fill()
	var tp *topo.Topology
	var remotes []packet.HostID
	if sys == SysOptimal {
		tp = OptimalTopo(16)
		for i := 0; i < 4; i++ {
			h := tp.AddLeafHost(tp.Leaves[0], 100e6, 5*sim.Microsecond)
			tp.MarkRemote(h)
			remotes = append(remotes, h)
		}
	} else {
		tp = Testbed()
		for _, s := range tp.Spines {
			remotes = append(remotes, tp.AddSpineHost(s, 100e6, 5*sim.Microsecond))
		}
	}
	c := buildCluster(sys, tp, opt)
	until := opt.Warmup + opt.Duration
	workload.StartNorthSouth(c, c.RNG(), remotes, sim.Millisecond, until)
	el := workload.Stride(c, 8)
	mice := workload.StartMice(c, hostPairs(16, 8), opt.MiceSize, opt.MiceResp, opt.MiceInterval, until)
	c.Eng.Run(opt.Warmup)
	el.ResetBaseline(c.Eng.Now())
	c.Eng.Run(until)
	return NorthSouthResult{
		System:       sys,
		Seed:         opt.Seed,
		MiceFCT:      &mice.FCT,
		MeanTput:     el.Mean(c.Eng.Now()),
		MiceTimeouts: mice.Timeouts,
	}
}

// FailoverWorkload selects the traffic pattern of Figure 17.
type FailoverWorkload int

// Figure 17's workloads.
const (
	FailL1L4 FailoverWorkload = iota // every L1 host to one L4 host
	FailL4L1
	FailStride
	FailBijection
)

func (f FailoverWorkload) String() string {
	switch f {
	case FailL1L4:
		return "L1->L4"
	case FailL4L1:
		return "L4->L1"
	case FailStride:
		return "stride"
	case FailBijection:
		return "bijection"
	}
	return "?"
}

// FailoverResult is the Figures 17/18 output: Presto's behaviour in
// the symmetry, fast-failover, and weighted-multipathing stages after
// the S1-L1 link dies.
type FailoverResult struct {
	Workload FailoverWorkload
	Seed     uint64 // RNG seed of the run
	// Mean per-flow goodput (Gbps) in each stage.
	SymmetryTput, FailoverTput, WeightedTput float64
	// RTT distributions (ms) per stage.
	SymmetryRTT, FailoverRTT, WeightedRTT *metrics.Dist
}

// RunFailover reproduces Figures 17 and 18 on the testbed with
// Presto: measure under symmetry, kill the S1-L1 link, measure the
// hardware-failover stage, then the controller's weighted stage.
func RunFailover(w FailoverWorkload, opt Options) FailoverResult {
	opt.fill()
	c := buildCluster(SysPresto, Testbed(), opt)

	var el *workload.Elephants
	switch w {
	case FailL1L4:
		el = elephantsBetween(c, []int{0, 1, 2, 3}, []int{12, 13, 14, 15})
	case FailL4L1:
		el = elephantsBetween(c, []int{12, 13, 14, 15}, []int{0, 1, 2, 3})
	case FailStride:
		el = workload.Stride(c, 8)
	case FailBijection:
		el = workload.RandomBijection(c, c.RNG())
	}
	probers := workload.StartProbers(c, pairsOf(el), opt.ProbeInterval)

	stage := opt.Duration / 3
	if stage < 20*sim.Millisecond {
		stage = 20 * sim.Millisecond
	}

	res := FailoverResult{Workload: w, Seed: opt.Seed}
	// Stage 1: symmetry.
	c.Eng.Run(opt.Warmup)
	el.ResetBaseline(c.Eng.Now())
	symStart := c.Eng.Now()
	c.Eng.Run(opt.Warmup + stage)
	res.SymmetryTput = el.Mean(c.Eng.Now())
	res.SymmetryRTT = rttWindow(probers, symStart, c.Eng.Now())

	// Failure: S1-L1 goes down. Hardware failover activates after the
	// fabric's latency (5 ms); the controller's weighted mappings land
	// after its 50 ms control loop.
	bad := c.Ctrl.Trees()[0].LeafLink[c.Topo.Leaves[0]]
	failAt := c.Eng.Now()
	c.FailLink(bad)

	// Stage 2: fast failover (after activation, before the controller
	// update).
	c.Eng.Run(failAt + 6*sim.Millisecond)
	el.ResetBaseline(c.Eng.Now())
	foStart := c.Eng.Now()
	c.Eng.Run(failAt + 48*sim.Millisecond)
	res.FailoverTput = el.Mean(c.Eng.Now())
	res.FailoverRTT = rttWindow(probers, foStart, c.Eng.Now())

	// Stage 3: weighted multipathing.
	c.Eng.Run(failAt + 60*sim.Millisecond)
	el.ResetBaseline(c.Eng.Now())
	wStart := c.Eng.Now()
	c.Eng.Run(failAt + 60*sim.Millisecond + stage)
	res.WeightedTput = el.Mean(c.Eng.Now())
	res.WeightedRTT = rttWindow(probers, wStart, c.Eng.Now())
	return res
}

func elephantsBetween(c *cluster.Cluster, srcs, dsts []int) *workload.Elephants {
	pairs := make([][2]packet.HostID, 0, len(srcs))
	for i := range srcs {
		pairs = append(pairs, [2]packet.HostID{packet.HostID(srcs[i]), packet.HostID(dsts[i%len(dsts)])})
	}
	return workload.Pairs(c, pairs)
}

// rttWindow extracts probe samples completed within [from, to).
func rttWindow(probers []*cluster.Prober, from, to sim.Time) *metrics.Dist {
	d := &metrics.Dist{}
	for _, p := range probers {
		for i, at := range p.SampleAt {
			if at >= from && at < to {
				d.Add(p.RTTs[i])
			}
		}
	}
	return d
}

// GRODisabledThroughput measures the no-receive-offload wall (§2.2's
// ~5.5-7 Gbps at 100% CPU): one elephant with GRO disabled at the
// receiver.
func GRODisabledThroughput(opt Options) (gbps, cpu float64) {
	opt.fill()
	c := cluster.New(cluster.Config{
		Topology: OptimalTopo(2),
		Scheme:   cluster.ECMP,
		Seed:     opt.Seed,
		GRO:      cluster.GRONone,
	})
	conn := c.Dial(0, 1)
	conn.SetUnlimited(true)
	c.Eng.Run(opt.Warmup)
	base := conn.Delivered()
	busy := c.Hosts[1].NIC.Stats.BusyTime
	start := c.Eng.Now()
	c.Eng.Run(opt.Warmup + opt.Duration)
	dur := (c.Eng.Now() - start).Seconds()
	gbps = float64(conn.Delivered()-base) * 8 / dur / 1e9
	cpu = c.Hosts[1].NIC.Utilization(busy, start)
	return gbps, cpu
}
