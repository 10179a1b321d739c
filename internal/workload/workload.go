// Package workload generates the offered traffic of §4's evaluation:
// the shuffle / stride / random / random-bijection synthetic patterns,
// mice flows with application-level acknowledgements, sockperf-style
// RTT probes, the trace-driven heavy-tailed workload modeled after the
// measurements of Kandula et al. (substituted with a synthetic
// log-normal+Pareto distribution, see DESIGN.md), and the north-south
// cross-traffic of Table 2.
package workload

import (
	"math"

	"presto/internal/cluster"
	"presto/internal/metrics"
	"presto/internal/packet"
	"presto/internal/sim"
)

// Elephants tracks a set of long-running flows and their throughput.
type Elephants struct {
	Conns   []*cluster.Conn
	startAt sim.Time
	baseRx  []uint64
}

// Throughputs returns per-flow goodput in Gbps since measurement
// start.
func (e *Elephants) Throughputs(now sim.Time) []float64 {
	dur := (now - e.startAt).Seconds()
	if dur <= 0 {
		return nil
	}
	out := make([]float64, len(e.Conns))
	for i, c := range e.Conns {
		out[i] = float64(c.Delivered()-e.baseRx[i]) * 8 / dur / 1e9
	}
	return out
}

// Mean returns the average per-flow throughput in Gbps.
func (e *Elephants) Mean(now sim.Time) float64 {
	ts := e.Throughputs(now)
	if len(ts) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range ts {
		sum += t
	}
	return sum / float64(len(ts))
}

// Fairness returns Jain's index over per-flow throughputs.
func (e *Elephants) Fairness(now sim.Time) float64 {
	return metrics.JainIndex(e.Throughputs(now))
}

// ResetBaseline restarts throughput measurement at now (to skip
// slow-start warmup, or to isolate a failover stage).
func (e *Elephants) ResetBaseline(now sim.Time) {
	e.startAt = now
	for i, c := range e.Conns {
		e.baseRx[i] = c.Delivered()
	}
}

// Pairs opens one unlimited flow per (src, dst) pair — the generic
// elephant starter the figure-specific patterns build on.
func Pairs(c *cluster.Cluster, pairs [][2]packet.HostID) *Elephants {
	return startElephants(c, pairs)
}

// startElephants opens one unlimited flow per (src, dst) pair.
func startElephants(c *cluster.Cluster, pairs [][2]packet.HostID) *Elephants {
	e := &Elephants{}
	for _, p := range pairs {
		conn := c.Dial(p[0], p[1])
		conn.SetUnlimited(true)
		e.Conns = append(e.Conns, conn)
	}
	e.baseRx = make([]uint64, len(e.Conns))
	e.startAt = c.Now()
	return e
}

// Stride starts the stride(k) workload: server[i] sends to
// server[(i+k) mod N] (§4).
func Stride(c *cluster.Cluster, k int) *Elephants {
	n := ServerCount(c)
	pairs := make([][2]packet.HostID, 0, n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, [2]packet.HostID{packet.HostID(i), packet.HostID((i + k) % n)})
	}
	return startElephants(c, pairs)
}

// RandomBijection starts the random bijection workload: a random
// permutation where every server sends to one cross-pod destination
// and receives from exactly one sender.
func RandomBijection(c *cluster.Cluster, rng *sim.RNG) *Elephants {
	n := ServerCount(c)
	perm := CrossPodPermutation(c, rng, n)
	pairs := make([][2]packet.HostID, 0, n)
	for i, d := range perm {
		if i == d {
			// Only the n==1 degenerate fallback produces a fixed point;
			// a host never opens an elephant flow to itself.
			continue
		}
		pairs = append(pairs, [2]packet.HostID{packet.HostID(i), packet.HostID(d)})
	}
	return startElephants(c, pairs)
}

// CrossPod reports whether (src, dst) is a valid cross-pod pair. On a
// single-switch topology every host shares the "pod", so the
// constraint degenerates to src != dst (otherwise the Optimal baseline
// could never run the random workloads).
func CrossPod(c *cluster.Cluster, src, dst packet.HostID) bool {
	if src == dst {
		return false
	}
	if len(c.Topo.Leaves) < 2 {
		return true
	}
	return !c.Topo.SameLeaf(src, dst)
}

// Random starts the random workload: each server picks a random
// cross-pod destination; receivers may collide. Sources with no valid
// cross-pod destination (degenerate topologies) are skipped rather
// than retried forever.
func Random(c *cluster.Cluster, rng *sim.RNG) *Elephants {
	n := ServerCount(c)
	pairs := make([][2]packet.HostID, 0, n)
	for i := 0; i < n; i++ {
		if d, ok := RandomCrossPodDst(c, rng, packet.HostID(i), n); ok {
			pairs = append(pairs, [2]packet.HostID{packet.HostID(i), d})
		}
	}
	return startElephants(c, pairs)
}

// RandomCrossPodDst draws a cross-pod destination for src. The draw
// loop is bounded: after maxDraws rejections it falls back to a
// deterministic scan for the first valid destination, and reports
// ok=false when the topology offers none at all (e.g. every other
// host shares src's leaf) — the caller must not retry, or a degenerate
// topology would hang the campaign runner.
func RandomCrossPodDst(c *cluster.Cluster, rng *sim.RNG, src packet.HostID, n int) (packet.HostID, bool) {
	const maxDraws = 200
	for attempt := 0; attempt < maxDraws; attempt++ {
		d := packet.HostID(rng.Intn(n))
		if CrossPod(c, src, d) {
			return d, true
		}
	}
	for d := 0; d < n; d++ {
		if CrossPod(c, src, packet.HostID(d)) {
			return packet.HostID(d), true
		}
	}
	return 0, false
}

// PairsN starts n one-to-one elephant pairs: host i on the first leaf
// to host i on the second (the Figure 4a/4b benchmarks).
func PairsN(c *cluster.Cluster, n int) *Elephants {
	half := ServerCount(c) / 2
	pairs := make([][2]packet.HostID, 0, n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, [2]packet.HostID{packet.HostID(i % half), packet.HostID(half + i%half)})
	}
	return startElephants(c, pairs)
}

// CrossPodPermutation draws random permutations until it finds one
// with no fixed points or same-leaf assignments. The draw loop is
// bounded, and the fallback is a deterministic derangement, so even a
// topology where the constraint is unsatisfiable (≤2 pods, or all
// servers on one leaf) terminates instead of hanging the campaign
// runner.
func CrossPodPermutation(c *cluster.Cluster, rng *sim.RNG, n int) []int {
	for attempt := 0; attempt < 200; attempt++ {
		p := rng.Perm(n)
		ok := true
		for i, d := range p {
			if !CrossPod(c, packet.HostID(i), packet.HostID(d)) {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	return fallbackDerangement(c, n)
}

// fallbackDerangement returns a deterministic assignment when random
// search fails: the first rotation whose pairs are all cross-pod —
// rotation by n/2 first, the always-valid shift in a balanced Clos
// (and the historical fallback, so existing seeds keep their
// artifacts) — else rotation by 1, a derangement for any n ≥ 2 even
// when the cross-pod constraint is unsatisfiable. Only n == 1 yields
// the identity, which callers must treat as "no valid pairing".
func fallbackDerangement(c *cluster.Cluster, n int) []int {
	rotation := func(k int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = (i + k) % n
		}
		return p
	}
	allCrossPod := func(p []int) bool {
		for i, d := range p {
			if !CrossPod(c, packet.HostID(i), packet.HostID(d)) {
				return false
			}
		}
		return true
	}
	if n <= 1 {
		return make([]int, n)
	}
	if p := rotation(n / 2); allCrossPod(p) {
		return p
	}
	for k := 1; k < n; k++ {
		if k == n/2 {
			continue
		}
		if p := rotation(k); allCrossPod(p) {
			return p
		}
	}
	return rotation(1)
}

// ServerCount returns the number of server hosts, excluding marked
// remote users (north-south endpoints, wherever they attach).
func ServerCount(c *cluster.Cluster) int {
	n := 0
	for i := 0; i < c.Topo.NumHosts(); i++ {
		h := packet.HostID(i)
		if !c.Topo.SpineAttached(h) && !c.Topo.IsRemote(h) {
			n++
		}
	}
	return n
}

// Shuffle emulates a Hadoop shuffle: every server sends sizePerPeer
// bytes to every other server in random order, keeping two transfers
// in flight at a time (§4). Completed transfers trigger the next.
type Shuffle struct {
	BytesMoved func() uint64
	// Tputs records each completed transfer's goodput in Gbps (the
	// "elephant throughput" of the shuffle workload in Figure 15).
	Tputs *metrics.Dist
	done  *int
	total int
}

// StartShuffle launches the shuffle workload and returns a tracker.
func StartShuffle(c *cluster.Cluster, rng *sim.RNG, sizePerPeer int) *Shuffle {
	n := ServerCount(c)
	var moved uint64
	done := 0
	total := 0
	sh := &Shuffle{done: &done, Tputs: &metrics.Dist{}}
	movedPtr := &moved

	for i := 0; i < n; i++ {
		src := packet.HostID(i)
		order := rng.Perm(n)
		var targets []packet.HostID
		for _, d := range order {
			if d != i {
				targets = append(targets, packet.HostID(d))
			}
		}
		total += len(targets)
		next := 0
		var launch func()
		launch = func() {
			if next >= len(targets) {
				return
			}
			dst := targets[next]
			next++
			conn := c.Dial(src, dst)
			start := c.Eng.Now()
			var last uint64
			conn.OnDelivered = func(delivered uint64) {
				*movedPtr += delivered - last
				last = delivered
				if delivered >= uint64(sizePerPeer) {
					conn.OnDelivered = nil
					done++
					if el := sim.Time(c.Eng.Now() - start); el > 0 {
						sh.Tputs.Add(float64(sizePerPeer) * 8 / el.Seconds() / 1e9)
					}
					launch() // start the next transfer
				}
			}
			conn.Write(sizePerPeer)
		}
		// Two concurrent transfers per host.
		launch()
		launch()
	}
	sh.total = total
	sh.BytesMoved = func() uint64 { return moved }
	return sh
}

// Done reports completed transfers out of the total.
func (s *Shuffle) Done() (int, int) { return *s.done, s.total }

// MiceResult records mice flow completion times.
type MiceResult struct {
	FCT metrics.Dist // milliseconds
	// Timeouts counts mice whose sender hit an RTO (the MPTCP
	// pathology in Figure 16 / Table 2).
	Timeouts int
	Started  int
	Finished int
}

// StartMice launches a mice-flow generator: every interval, each
// (src, dst) pair sends a flow of size bytes on a fresh connection and
// waits for a respSize-byte application acknowledgement; the FCT is
// send→response (§4: 50 KB flows every 100 ms).
func StartMice(c *cluster.Cluster, pairs [][2]packet.HostID, size, respSize int, interval sim.Time, until sim.Time) *MiceResult {
	res := &MiceResult{}
	for _, pr := range pairs {
		src, dst := pr[0], pr[1]
		var tick func()
		tick = func() {
			if c.Eng.Now() >= until {
				return
			}
			res.Started++
			conn := c.Dial(src, dst)
			start := c.Eng.Now()
			conn.OnDelivered = func(total uint64) {
				if total >= uint64(size) {
					conn.OnDelivered = nil
					conn.WriteReverse(respSize)
				}
			}
			conn.OnReverseDelivered = func(total uint64) {
				if total >= uint64(respSize) {
					conn.OnReverseDelivered = nil
					res.Finished++
					res.FCT.Add(sim.Time(c.Eng.Now() - start).Milliseconds())
					if conn.SenderTimeouts() > 0 {
						res.Timeouts++
					}
					conn.Close()
				}
			}
			conn.Write(size)
			c.Eng.Schedule(interval, tick)
		}
		c.Eng.Schedule(c.RNG().Duration(interval), tick) // staggered start
	}
	return res
}

// StartProbers launches RTT probers over the given pairs and returns
// them (call CollectRTT after the run).
func StartProbers(c *cluster.Cluster, pairs [][2]packet.HostID, interval sim.Time) []*cluster.Prober {
	var ps []*cluster.Prober
	for _, pr := range pairs {
		p := c.NewProber(pr[0], pr[1], interval)
		p.Start()
		ps = append(ps, p)
	}
	return ps
}

// CollectRTT merges prober samples into one distribution (ms).
func CollectRTT(ps []*cluster.Prober) *metrics.Dist {
	var d metrics.Dist
	for _, p := range ps {
		for _, v := range p.Samples.Samples() {
			d.Add(v)
		}
	}
	return &d
}

// FlowSizeDist is the synthetic heavy-tailed flow-size distribution
// standing in for the datacenter traces of Kandula et al. [33]
// (DESIGN.md substitution): a log-normal body (median ~10 KB) with a
// Pareto tail so that most flows are mice (<100 KB) while most bytes
// come from elephants (>1 MB), the decomposition the paper relies on.
type FlowSizeDist struct {
	rng *sim.RNG
	// Scale multiplies every sampled size (the paper scales by 10 to
	// emulate a heavier workload, §6).
	Scale float64
}

// NewFlowSizeDist builds the sampler.
func NewFlowSizeDist(rng *sim.RNG, scale float64) *FlowSizeDist {
	if scale <= 0 {
		scale = 1
	}
	return &FlowSizeDist{rng: rng, Scale: scale}
}

// Sample draws one flow size in bytes.
func (f *FlowSizeDist) Sample() int {
	var size float64
	if f.rng.Float64() < 0.95 {
		// Body: log-normal, median 10 KB, sigma 1.3.
		size = 10_000 * math.Exp(1.3*f.rng.NormFloat64())
	} else {
		// Tail: Pareto alpha=1.1, minimum 1 MB.
		u := f.rng.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		size = 1e6 * math.Pow(u, -1/1.1)
	}
	size *= f.Scale
	if size < 100 {
		size = 100
	}
	if size > 1e9 {
		size = 1e9
	}
	return int(size)
}

// TraceResult aggregates trace-driven workload measurements.
type TraceResult struct {
	MiceFCT     metrics.Dist // FCT of flows < 100 KB (ms)
	ElephantTps metrics.Dist // goodput of flows > 1 MB (Gbps)
	Flows       int
}

// StartTrace launches the trace-driven workload: each server samples
// flow sizes and inter-arrival times (Poisson with the given mean) and
// sends each flow to a random cross-rack destination over a fresh
// connection (§6, scaled ×10).
func StartTrace(c *cluster.Cluster, rng *sim.RNG, meanInterarrival sim.Time, scale float64, until sim.Time) *TraceResult {
	res := &TraceResult{}
	n := ServerCount(c)
	sizes := NewFlowSizeDist(rng.Fork(), scale)
	for i := 0; i < n; i++ {
		src := packet.HostID(i)
		r := rng.Fork()
		var tick func()
		tick = func() {
			if c.Eng.Now() >= until {
				return
			}
			dst, ok := RandomCrossPodDst(c, r, src, n)
			if !ok {
				return // no valid destination exists; stop this generator
			}
			size := sizes.Sample()
			conn := c.Dial(src, dst)
			start := c.Eng.Now()
			res.Flows++
			conn.OnDelivered = func(total uint64) {
				if total >= uint64(size) {
					conn.OnDelivered = nil
					el := sim.Time(c.Eng.Now() - start)
					if size < 100_000 {
						res.MiceFCT.Add(el.Milliseconds())
					} else if size > 1_000_000 {
						res.ElephantTps.Add(float64(size) * 8 / el.Seconds() / 1e9)
					}
					conn.Close()
				}
			}
			conn.Write(size)
			gap := sim.Time(float64(meanInterarrival) * r.ExpFloat64())
			if gap < sim.Microsecond {
				gap = sim.Microsecond
			}
			c.Eng.Schedule(gap, tick)
		}
		c.Eng.Schedule(r.Duration(meanInterarrival), tick)
	}
	return res
}

// StartNorthSouth launches the Table 2 cross traffic: every server
// keeps starting flows to random spine-attached remote users at the
// given interval, flow sizes drawn from a web-like distribution
// (log-normal, median ~20 KB).
func StartNorthSouth(c *cluster.Cluster, rng *sim.RNG, remotes []packet.HostID, interval sim.Time, until sim.Time) {
	n := ServerCount(c)
	for i := 0; i < n; i++ {
		src := packet.HostID(i)
		r := rng.Fork()
		var tick func()
		tick = func() {
			if c.Eng.Now() >= until || len(remotes) == 0 {
				return
			}
			dst := remotes[r.Intn(len(remotes))]
			size := int(20_000 * math.Exp(1.0*r.NormFloat64()))
			if size < 500 {
				size = 500
			}
			if size > 5_000_000 {
				size = 5_000_000
			}
			conn := c.Dial(src, dst)
			conn.OnDelivered = func(total uint64) {
				if total >= uint64(size) {
					conn.OnDelivered = nil
					conn.Close()
				}
			}
			conn.Write(size)
			c.Eng.Schedule(interval, tick)
		}
		c.Eng.Schedule(r.Duration(interval), tick)
	}
}
