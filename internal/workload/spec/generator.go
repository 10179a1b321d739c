package spec

import (
	"fmt"
	"hash/fnv"
	"math"

	"presto/internal/cluster"
	"presto/internal/metrics"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/workload"
)

// Generator is a compiled workload spec bound to a cluster: an
// event-driven traffic source whose every random draw comes from
// per-client RNG streams derived from (run seed, spec seed, client),
// so the generated event sequence is a pure function of spec + seed —
// independent of campaign parallelism or event interleaving elsewhere
// in the run.
type Generator struct {
	// Spec is the validated spec this generator was compiled from.
	Spec *Spec

	// OnFlowStart, when set before Start, observes every sized flow
	// the generator opens (FlowStart.At is absolute simulation time).
	// cmd/capture uses it to emit replayable flow logs.
	OnFlowStart func(FlowStart)

	c       *cluster.Cluster
	clients []*clientRun
	started bool
}

// ClientResult aggregates one client's traffic outcomes.
type ClientResult struct {
	// ID is the client's spec ID.
	ID string
	// Started/Finished count flows opened and completed; Timeouts
	// counts finished flows whose sender hit at least one RTO.
	Started  int
	Finished int
	Timeouts int
	// BytesMoved sums the sizes of completed flows.
	BytesMoved uint64
	// FCT holds completion times of finished sized flows, in
	// milliseconds. Unlimited (elephant) clients have none.
	FCT *metrics.Dist
	// Tput is the mean per-flow goodput in Gbps for unlimited clients
	// (0 for sized clients); filled by Results.
	Tput float64
}

// clientRun is the per-client runtime state.
type clientRun struct {
	cfg *Client
	rng *sim.RNG
	res ClientResult
	// eleph tracks unlimited once-flows (throughput-measured).
	eleph *workload.Elephants
	// pairs is the enumerable pair set for pairs/stride/bijection.
	pairs [][2]packet.HostID
	// remotes are the north-south destinations.
	remotes []packet.HostID
	// trace holds the resolved flow-start log for trace clients.
	trace []FlowStart
	// rate is the resolved arrival rate in flows/sec.
	rate float64
}

// clientStream derives the client's RNG seed by mixing the run seed,
// the spec seed, and the client's identity. Hashing the ID (not just
// the index) means reordering unrelated clients in a spec does not
// silently reshuffle a client's stream.
func clientStream(runSeed, specSeed uint64, idx int, id string) *sim.RNG {
	h := fnv.New64a()
	h.Write([]byte(id)) //prestolint:allow errdrop -- hash.Hash.Write is documented to never return an error
	mixed := runSeed
	mixed ^= specSeed * 0x9e3779b97f4a7c15
	mixed ^= uint64(idx+1) * 0xbf58476d1ce4e5b9
	mixed ^= h.Sum64()
	return sim.NewRNG(mixed)
}

// Compile binds a validated spec to a cluster, running the
// topology-dependent checks Validate cannot (host IDs in range,
// remotes present for north-south, incast fan-in vs fabric size) and
// deriving each client's RNG stream from seed. The generator is inert
// until Start.
func Compile(ws *Spec, c *cluster.Cluster, seed uint64) (*Generator, error) {
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	n := workload.ServerCount(c)
	if n < 2 {
		return nil, fmt.Errorf("workload %q: topology has %d servers; need >= 2", ws.Name, n)
	}
	g := &Generator{Spec: ws, c: c}
	for i := range ws.Clients {
		cfg := &ws.Clients[i]
		cr := &clientRun{
			cfg: cfg,
			rng: clientStream(seed, ws.Seed, i, cfg.ID),
			res: ClientResult{ID: cfg.ID, FCT: &metrics.Dist{}},
		}
		path := fmt.Sprintf("clients[%d]", i)
		if cfg.Trace != nil {
			flows, err := resolveTrace(cfg.Trace, c.Topo.NumHosts())
			if err != nil {
				return nil, fmt.Errorf("%s.trace: %w", path, err)
			}
			cr.trace = flows
		} else {
			if err := compileSelect(cr, c, n, path); err != nil {
				return nil, err
			}
			cr.rate = cfg.Rate
			if cr.rate == 0 {
				cr.rate = cfg.RateFraction * ws.AggregateRate
			}
			if cfg.Arrival.Process != ProcOnce && cr.rate <= 0 {
				return nil, fmt.Errorf("%s: resolved arrival rate is 0", path)
			}
		}
		g.clients = append(g.clients, cr)
	}
	return g, nil
}

// compileSelect materializes a client's selection policy against the
// topology.
func compileSelect(cr *clientRun, c *cluster.Cluster, n int, path string) error {
	sel := &cr.cfg.Select
	switch sel.Kind {
	case SelPairs:
		for i, p := range sel.Pairs {
			if p[0] >= c.Topo.NumHosts() || p[1] >= c.Topo.NumHosts() {
				return fmt.Errorf("%s.select.pairs[%d]: host (%d, %d) out of range (topology has %d hosts)",
					path, i, p[0], p[1], c.Topo.NumHosts())
			}
			cr.pairs = append(cr.pairs, [2]packet.HostID{packet.HostID(p[0]), packet.HostID(p[1])})
		}
	case SelStride:
		k := sel.Stride
		if k == 0 {
			k = n / 2
		}
		for i := 0; i < n; i++ {
			d := (i + k) % n
			if d == i {
				continue
			}
			cr.pairs = append(cr.pairs, [2]packet.HostID{packet.HostID(i), packet.HostID(d)})
		}
		if len(cr.pairs) == 0 {
			return fmt.Errorf("%s.select.stride: stride %d yields no pairs on %d servers", path, sel.Stride, n)
		}
	case SelBijection:
		perm := workload.CrossPodPermutation(c, cr.rng, n)
		for i, d := range perm {
			if i == d {
				continue
			}
			cr.pairs = append(cr.pairs, [2]packet.HostID{packet.HostID(i), packet.HostID(d)})
		}
		if len(cr.pairs) == 0 {
			return fmt.Errorf("%s.select.bijection: no valid cross-pod pairing on this topology", path)
		}
	case SelRandom:
		// Pairs drawn per arrival.
	case SelIncast:
		// Fan-in is capped by available distinct sources; a 32-way
		// incast spec still runs on a 16-host testbed as 15-way.
		if n-1 < 2 {
			return fmt.Errorf("%s.select.incast: topology has %d servers; incast needs >= 3", path, n)
		}
	case SelNorthSouth:
		for i := 0; i < c.Topo.NumHosts(); i++ {
			h := packet.HostID(i)
			if c.Topo.IsRemote(h) || c.Topo.SpineAttached(h) {
				cr.remotes = append(cr.remotes, h)
			}
		}
		if len(cr.remotes) == 0 {
			return fmt.Errorf("%s.select.northsouth: topology has no remote users (attach spine hosts or MarkRemote first)", path)
		}
	}
	return nil
}

// resolveTrace loads and bounds-checks a trace source.
func resolveTrace(t *TraceSource, numHosts int) ([]FlowStart, error) {
	flows := t.Inline
	if t.Path != "" {
		var err error
		flows, err = ParseFlowLog(t.Path)
		if err != nil {
			return nil, err
		}
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("trace has no flows")
	}
	scale := t.TimeScale
	if scale == 0 {
		scale = 1
	}
	out := make([]FlowStart, len(flows))
	prev := Duration(-1)
	for i, f := range flows {
		if f.Src >= numHosts || f.Dst >= numHosts {
			return nil, fmt.Errorf("flow %d: host (%d, %d) out of range (topology has %d hosts)", i, f.Src, f.Dst, numHosts)
		}
		f.At = Duration(float64(f.At) * scale)
		if f.At < prev {
			return nil, fmt.Errorf("flow %d: timestamps must be non-decreasing", i)
		}
		prev = f.At
		out[i] = f
	}
	return out, nil
}

// Start schedules every client's traffic, running until each client's
// window closes or until, whichever is first. Call exactly once,
// before the measurement run.
func (g *Generator) Start(until sim.Time) {
	if g.started {
		panic("spec: Generator.Start called twice")
	}
	g.started = true
	base := g.c.Eng.Now()
	for _, cr := range g.clients {
		stop := until
		if cr.cfg.Stop != 0 && base+sim.Time(cr.cfg.Stop) < stop {
			stop = base + sim.Time(cr.cfg.Stop)
		}
		start := sim.Time(cr.cfg.Start)
		launch := func(cr *clientRun, stop sim.Time) func() {
			return func() { g.launchClient(cr, stop) }
		}(cr, stop)
		if start == 0 {
			launch()
		} else {
			g.c.Eng.Schedule(start, launch)
		}
	}
}

// launchClient starts one client's arrival loop at the current time.
func (g *Generator) launchClient(cr *clientRun, stop sim.Time) {
	if g.c.Eng.Now() >= stop {
		return
	}
	switch {
	case cr.cfg.Trace != nil:
		g.runTrace(cr, stop)
	case cr.cfg.Arrival.Process == ProcOnce:
		g.runOnce(cr, stop)
	default:
		g.runArrivals(cr, stop)
	}
}

// runOnce opens one flow per pair at window start: unlimited flows
// become throughput-tracked elephants; sized flows complete like any
// other.
func (g *Generator) runOnce(cr *clientRun, stop sim.Time) {
	if cr.cfg.Size.Kind == SizeUnlimited {
		cr.eleph = workload.Pairs(g.c, cr.pairs)
		cr.res.Started += len(cr.pairs)
		return
	}
	for _, p := range cr.pairs {
		g.openFlow(cr, p[0], p[1], sampleSize(&cr.cfg.Size, cr.rng))
	}
}

// runArrivals drives a rate-based arrival process: each tick opens the
// flows for one arrival, then schedules the next by the process's gap
// distribution.
func (g *Generator) runArrivals(cr *clientRun, stop sim.Time) {
	mean := sim.Time(1e9 / cr.rate) // mean inter-arrival, ns
	if mean <= 0 {
		mean = sim.Microsecond
	}
	var tick func()
	tick = func() {
		if g.c.Eng.Now() >= stop {
			return
		}
		g.arrive(cr)
		gap := arrivalGap(&cr.cfg.Arrival, cr.rng, mean)
		if cr.cfg.Arrival.Process == ProcOnOff {
			gap = onOffShift(g.c.Eng.Now(), gap, &cr.cfg.Arrival)
		}
		g.c.Eng.Schedule(gap, tick)
	}
	// Stagger the first arrival uniformly within one mean gap so
	// clients don't synchronize at t=0.
	g.c.Eng.Schedule(cr.rng.Duration(mean), tick)
}

// arrive opens the flows for one arrival event per the client's
// selection policy.
func (g *Generator) arrive(cr *clientRun) {
	n := workload.ServerCount(g.c)
	switch cr.cfg.Select.Kind {
	case SelPairs, SelStride, SelBijection:
		p := cr.pairs[cr.rng.Intn(len(cr.pairs))]
		g.openFlow(cr, p[0], p[1], sampleSize(&cr.cfg.Size, cr.rng))
	case SelRandom:
		src := packet.HostID(cr.rng.Intn(n))
		if dst, ok := workload.RandomCrossPodDst(g.c, cr.rng, src, n); ok {
			g.openFlow(cr, src, dst, sampleSize(&cr.cfg.Size, cr.rng))
		}
	case SelIncast:
		g.arriveIncast(cr, n)
	case SelNorthSouth:
		src := packet.HostID(cr.rng.Intn(n))
		dst := cr.remotes[cr.rng.Intn(len(cr.remotes))]
		g.openFlow(cr, src, dst, sampleSize(&cr.cfg.Size, cr.rng))
	}
}

// arriveIncast opens one fan-in burst: FanIn distinct sources (capped
// at n-1) each send one flow to a random destination simultaneously —
// the partition-aggregate pattern.
func (g *Generator) arriveIncast(cr *clientRun, n int) {
	dst := packet.HostID(cr.rng.Intn(n))
	fan := cr.cfg.Select.FanIn
	if fan > n-1 {
		fan = n - 1
	}
	// Draw FanIn distinct sources != dst via a partial shuffle.
	srcs := cr.rng.Perm(n)
	opened := 0
	for _, s := range srcs {
		if opened == fan {
			break
		}
		if packet.HostID(s) == dst {
			continue
		}
		g.openFlow(cr, packet.HostID(s), dst, sampleSize(&cr.cfg.Size, cr.rng))
		opened++
	}
}

// runTrace replays the client's recorded flow starts, optionally
// looping until the window closes.
func (g *Generator) runTrace(cr *clientRun, stop sim.Time) {
	base := g.c.Eng.Now()
	span := sim.Time(cr.trace[len(cr.trace)-1].At)
	if span <= 0 {
		span = sim.Millisecond
	}
	var lap func(offset sim.Time)
	lap = func(offset sim.Time) {
		for _, f := range cr.trace {
			at := base + offset + sim.Time(f.At)
			if at >= stop {
				return
			}
			flow := f
			g.c.Eng.Schedule(at-g.c.Eng.Now(), func() {
				if g.c.Eng.Now() >= stop {
					return
				}
				g.openFlow(cr, packet.HostID(flow.Src), packet.HostID(flow.Dst), flow.Bytes)
			})
		}
		if cr.cfg.Trace.Loop {
			next := offset + span
			if base+next < stop {
				g.c.Eng.Schedule(base+next-g.c.Eng.Now(), func() { lap(next) })
			}
		}
	}
	lap(0)
}

// openFlow opens one sized flow and records its completion.
func (g *Generator) openFlow(cr *clientRun, src, dst packet.HostID, size int) {
	if size <= 0 || src == dst {
		return
	}
	if g.OnFlowStart != nil {
		g.OnFlowStart(FlowStart{At: Duration(g.c.Eng.Now()), Src: int(src), Dst: int(dst), Bytes: size})
	}
	cr.res.Started++
	conn := g.c.Dial(src, dst)
	start := g.c.Eng.Now()
	conn.OnDelivered = func(total uint64) {
		if total >= uint64(size) {
			conn.OnDelivered = nil
			cr.res.Finished++
			cr.res.BytesMoved += uint64(size)
			if conn.SenderTimeouts() > 0 {
				cr.res.Timeouts++
			}
			cr.res.FCT.Add(sim.Time(g.c.Eng.Now() - start).Milliseconds())
			conn.Close()
		}
	}
	conn.Write(size)
}

// sampleSize draws one flow size in bytes from the client's
// distribution, applying the spec's bounds and a 1-byte floor.
func sampleSize(d *SizeDist, rng *sim.RNG) int {
	var size float64
	switch d.Kind {
	case SizeFixed:
		size = float64(d.Bytes)
	case SizeLognormal:
		size = d.MedianBytes * math.Exp(d.Sigma*rng.NormFloat64())
	case SizePareto:
		u := rng.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		size = d.ScaleBytes * math.Pow(u, -1/d.Alpha)
	case SizeEmpirical:
		size = sampleCDF(d.CDF, rng.Float64())
	default:
		return 0
	}
	if d.Min > 0 && size < float64(d.Min) {
		size = float64(d.Min)
	}
	if d.Max > 0 && size > float64(d.Max) {
		size = float64(d.Max)
	}
	if size < 1 {
		size = 1
	}
	if size > 1e9 {
		size = 1e9
	}
	return int(size)
}

// sampleCDF inverts an empirical CDF at u by linear interpolation
// between its points (below the first point, sizes interpolate from 0
// mass at the first point's bytes).
func sampleCDF(cdf []CDFPoint, u float64) float64 {
	if u <= cdf[0].Frac {
		return cdf[0].Bytes
	}
	for i := 1; i < len(cdf); i++ {
		if u <= cdf[i].Frac {
			lo, hi := cdf[i-1], cdf[i]
			t := (u - lo.Frac) / (hi.Frac - lo.Frac)
			return lo.Bytes + t*(hi.Bytes-lo.Bytes)
		}
	}
	return cdf[len(cdf)-1].Bytes
}

// arrivalGap draws one inter-arrival gap for the process, floored at
// 1µs so a heavy-tailed draw near zero cannot schedule an event storm.
func arrivalGap(a *Arrival, rng *sim.RNG, mean sim.Time) sim.Time {
	var gap float64
	switch a.Process {
	case ProcPoisson, ProcOnOff:
		gap = float64(mean) * rng.ExpFloat64()
	case ProcGamma:
		cv := a.CV
		if cv == 0 {
			cv = 1
		}
		k := 1 / (cv * cv)
		gap = float64(mean) / k * gammaSample(rng, k)
	case ProcWeibull:
		shape := a.Shape
		if shape == 0 {
			shape = 1
		}
		lambda := float64(mean) / math.Gamma(1+1/shape)
		u := rng.Float64()
		if u >= 1 {
			u = 1 - 1e-16
		}
		gap = lambda * math.Pow(-math.Log(1-u), 1/shape)
	default:
		gap = float64(mean)
	}
	t := sim.Time(gap)
	if t < sim.Microsecond {
		t = sim.Microsecond
	}
	return t
}

// gammaSample draws from Gamma(k, 1) via Marsaglia–Tsang. The
// rejection loop is deterministic (same RNG stream → same draws) and
// bounded; exhausting it falls back to the mean.
func gammaSample(rng *sim.RNG, k float64) float64 {
	if k < 1 {
		u := rng.Float64()
		if u < 1e-16 {
			u = 1e-16
		}
		return gammaSample(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for i := 0; i < 100; i++ {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
	return k
}

// onOffShift maps a drawn gap through the client's on/off duty cycle:
// time only accrues during on-windows, so an arrival whose gap crosses
// the window boundary slides past the off period. Cycle phase is
// anchored at t=0 of the run.
func onOffShift(now sim.Time, gap sim.Time, a *Arrival) sim.Time {
	on, off := sim.Time(a.On), sim.Time(a.Off)
	period := on + off
	t := now
	remaining := gap
	for remaining > 0 {
		pos := t % period
		if pos >= on {
			// In an off-window: slide to the next on-window.
			t += period - pos
			continue
		}
		avail := on - pos
		if remaining <= avail {
			t += remaining
			remaining = 0
		} else {
			t += avail
			remaining -= avail
		}
	}
	return t - now
}

// ResetBaseline restarts measurement at now: elephant throughput
// baselines reset and per-client FCT distributions and counters clear,
// so warmup traffic does not pollute the measured window.
func (g *Generator) ResetBaseline(now sim.Time) {
	for _, cr := range g.clients {
		if cr.eleph != nil {
			cr.eleph.ResetBaseline(now)
		}
		cr.res.FCT = &metrics.Dist{}
		cr.res.Started, cr.res.Finished, cr.res.Timeouts = 0, 0, 0
		cr.res.BytesMoved = 0
	}
}

// elephantTputs collects per-flow goodputs across all unlimited
// clients.
func (g *Generator) elephantTputs(now sim.Time) []float64 {
	var all []float64
	for _, cr := range g.clients {
		if cr.eleph != nil {
			all = append(all, cr.eleph.Throughputs(now)...)
		}
	}
	return all
}

// MeanTput returns the mean per-flow elephant goodput in Gbps since
// the last baseline (0 if the spec has no unlimited clients).
func (g *Generator) MeanTput(now sim.Time) float64 {
	ts := g.elephantTputs(now)
	if len(ts) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range ts {
		sum += t
	}
	return sum / float64(len(ts))
}

// Fairness returns Jain's index over all elephant flows (0 if none).
func (g *Generator) Fairness(now sim.Time) float64 {
	return metrics.JainIndex(g.elephantTputs(now))
}

// Results snapshots per-client outcomes at now, in spec order.
func (g *Generator) Results(now sim.Time) []ClientResult {
	out := make([]ClientResult, len(g.clients))
	for i, cr := range g.clients {
		out[i] = cr.res
		if cr.eleph != nil {
			out[i].Tput = cr.eleph.Mean(now)
		}
	}
	return out
}
