package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"

	"presto/internal/metrics"
	"presto/internal/sim"
	"presto/internal/tcp"
)

// fingerprint summarizes a repetition's simulated output. Two runs of
// one (workload, seed) must produce identical fingerprints, whatever
// the engine partitioning or host speed.
type fingerprint struct {
	Events    uint64 `json:"events"`
	Delivered uint64 `json:"delivered"`
	Drops     uint64 `json:"drops"`
	// AckedHash is FNV-64a over every connection's acked bytes, in dial
	// order.
	AckedHash     string  `json:"acked_hash"`
	FlowsFinished int     `json:"flows_finished,omitempty"`
	FCTP50        float64 `json:"fct_p50_ms,omitempty"`
	FCTP99        float64 `json:"fct_p99_ms,omitempty"`
}

// repResult is what one repetition (one child process) reports.
type repResult struct {
	Fingerprint fingerprint `json:"fingerprint"`
	// Counts are the exact per-layer counts and count ratios; they must
	// repeat bit for bit across repetitions of one seed.
	Counts map[string]float64 `json:"counts"`
	// Invariant is empty when the run's output is plausible, or says
	// what is wrong.
	Invariant string `json:"invariant,omitempty"`

	SetupS    float64    `json:"setup_s"`
	SetupMS   [3]float64 `json:"setup_ms"` // topo, cluster, workload
	SliceMS   []float64  `json:"slice_ms"`
	SimMSPerS float64    `json:"sim_ms_per_s"`
	// Untraced per-layer ratios over the measured window.
	NsPerEvent   float64 `json:"ns_per_event"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	BytesPerPkt  float64 `json:"bytes_per_pkt"`
	GCCycles     float64 `json:"gc_cycles"`
	GCCPUFrac    float64 `json:"gc_cpu_frac"`

	// Traced repetitions only.
	Traced *tracedResult `json:"traced,omitempty"`
}

// tracedResult is the profile-derived per-layer attribution.
type tracedResult struct {
	SelfMS     map[string]float64 `json:"self_ms"`
	AllocShare map[string]float64 `json:"alloc_share"`
	CPUSamples int                `json:"cpu_samples"`
	Attributed float64            `json:"attributed_frac"`
	SimMSPerS  float64            `json:"sim_ms_per_s"`
}

// Set-up repeats up to maxSetups times while the set-ups so far took
// less than setupBudget seconds in all.
const (
	maxSetups   = 25
	setupBudget = 0.2
)

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runRep runs one repetition of w in this process: set up, warm up,
// then time each of the slices of the measured window. With traceDir
// set it also takes CPU and allocation profiles and writes them, with
// the spans, under traceDir.
func runRep(w *workloadDef, seed uint64, serial bool, traceDir string) (*repResult, error) {
	var cpuProf bytes.Buffer
	if traceDir != "" {
		runtime.MemProfileRate = 64 << 10
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	sp := newSpans()
	root := sp.begin("rep")
	// Set up once, and again while set-up is cheap, so set-up time is a
	// median rather than one noisy sample; the last build is the one run.
	var sc *scenario
	var setupS []float64
	var phaseMS [3][]float64
	for spent := 0.0; len(setupS) == 0 || (len(setupS) < maxSetups && spent < setupBudget); {
		id := sp.begin("setup")
		var err error
		if sc, err = w.build(seed, serial, sp); err != nil {
			return nil, err
		}
		sp.end(id)
		d := sp.dur(id).Seconds()
		spent += d
		setupS = append(setupS, d)
		for i := range phaseMS {
			// build's three phase spans directly follow the setup span.
			phaseMS[i] = append(phaseMS[i], float64(sp.dur(id+1+i))/1e6)
		}
	}
	c := sc.c

	id := sp.begin("warmup")
	c.Run(w.warmup)
	sp.end(id)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()
	ev0, pk0 := c.Executed(), c.Net.TotalDelivered()
	res := &repResult{SliceMS: make([]float64, slices)}
	measure := sp.begin("measure")
	for i := 1; i <= slices; i++ {
		id := sp.begin("slice")
		c.Run(w.warmup + w.window*sim.Time(i)/slices)
		sp.end(id)
		res.SliceMS[i-1] = float64(sp.dur(id)) / 1e6
	}
	sp.end(measure)
	measured := sp.dur(measure)
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&m1)
	events, pkts := float64(c.Executed()-ev0), float64(c.Net.TotalDelivered()-pk0)

	id = sp.begin("harvest")
	res.Fingerprint, res.Counts, res.Invariant = harvest(w, sc)
	sp.end(id)
	sp.end(root)

	res.SetupS = quantile(setupS, 0.5)
	for i := range phaseMS {
		res.SetupMS[i] = quantile(phaseMS[i], 0.5)
	}
	res.SimMSPerS = w.window.Milliseconds() / measured.Seconds()
	res.NsPerEvent = float64(measured.Nanoseconds()) / events
	res.AllocsPerPkt = float64(m1.Mallocs-m0.Mallocs) / pkts
	res.BytesPerPkt = float64(m1.TotalAlloc-m0.TotalAlloc) / pkts
	res.GCCycles = float64(m1.NumGC - m0.NumGC)
	if cpu1 > cpu0 {
		res.GCCPUFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	if traceDir == "" {
		return res, nil
	}
	pprof.StopCPUProfile()
	tr, err := attribute(cpuProf.Bytes(), traceDir, sp.finish())
	if err != nil {
		return nil, err
	}
	tr.SimMSPerS = res.SimMSPerS
	res.Traced = tr
	return res, nil
}

// attribute charges the traced run's CPU and allocation samples to
// layers and writes the profiles and spans under dir.
func attribute(cpu []byte, dir string, list []span) (*tracedResult, error) {
	// The allocation profile is as of the last completed GC cycle.
	runtime.GC()
	var allocs bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&allocs, 0); err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	spanJSON, err := json.MarshalIndent(list, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for name, data := range map[string][]byte{"cpu.pprof": cpu, "allocs.pprof": allocs.Bytes(), "spans.json": spanJSON} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return nil, err
		}
	}

	cp, err := parseProfile(cpu)
	if err != nil {
		return nil, err
	}
	cpuNS, cpuTotal, err := byLayer(cp, "cpu")
	if err != nil {
		return nil, err
	}
	ap, err := parseProfile(allocs.Bytes())
	if err != nil {
		return nil, err
	}
	allocB, allocTotal, err := byLayer(ap, "alloc_space")
	if err != nil {
		return nil, err
	}
	tr := &tracedResult{SelfMS: map[string]float64{}, AllocShare: map[string]float64{}, CPUSamples: len(cp.samples)}
	var named int64
	for _, l := range namedLayers {
		tr.SelfMS[l] = float64(cpuNS[l]) / 1e6
		named += cpuNS[l]
		if allocTotal > 0 {
			tr.AllocShare[l] = float64(allocB[l]) / float64(allocTotal)
		}
	}
	if cpuTotal > 0 {
		tr.Attributed = float64(named) / float64(cpuTotal)
	}
	return tr, nil
}

// harvest reads the run's simulated outcome: its fingerprint, the
// exact per-layer counts, and a violated invariant if any.
func harvest(w *workloadDef, sc *scenario) (fingerprint, map[string]float64, string) {
	c := sc.c
	fp := fingerprint{
		Events:    c.Executed(),
		Delivered: c.Net.TotalDelivered(),
		Drops:     c.Net.TotalDrops() + c.Net.TotalHopDrops(),
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, conn := range c.Conns() {
		v := conn.Acked()
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:]) //prestolint:allow errdrop -- hash.Hash.Write is documented to never return an error
	}
	fp.AckedHash = fmt.Sprintf("%016x", h.Sum64())

	var rxPkts, polls, rxDrops, groIn, groOut, holds, fires, flowcells uint64
	for _, host := range c.Hosts {
		st := host.NIC.Stats
		rxPkts, polls, rxDrops = rxPkts+st.RxPackets, polls+st.Polls, rxDrops+st.RxDrops
		gs := host.NIC.GRO().Stats()
		groIn, groOut = groIn+gs.PacketsIn, groOut+gs.SegmentsOut
		holds, fires = holds+gs.ReorderHolds, fires+gs.TimeoutFires
		flowcells += host.VS.Stats.Flowcells
	}
	var retx, rto, acks, segs uint64
	for _, conn := range c.Conns() {
		// Presto runs plain TCP: one endpoint at each end.
		for _, e := range []*tcp.Endpoint{conn.Sender(), conn.Receiver()} {
			retx, rto, acks, segs = retx+e.Stats.Retransmits, rto+e.Stats.Timeouts, acks+e.Stats.AcksSent, segs+e.Stats.SegmentsSent
		}
	}

	counts := map[string]float64{
		"sim.events_per_pkt":  ratio(fp.Events, fp.Delivered),
		"fabric.drops":        float64(fp.Drops),
		"nic.pkts_per_poll":   ratio(rxPkts, polls),
		"nic.rx_drops":        float64(rxDrops),
		"gro.pkts_per_seg":    ratio(groIn, groOut),
		"gro.reorder_holds":   float64(holds),
		"gro.timeout_fires":   float64(fires),
		"tcp.retransmits":     float64(retx),
		"tcp.timeouts":        float64(rto),
		"tcp.acks_per_seg":    ratio(acks, segs),
		"vswitch.flowcells":   float64(flowcells),
		"sim.shard.windows":   0,
		"sim.shard.imbalance": 1,
	}
	if g := c.Group(); g != nil {
		counts["sim.shard.windows"] = float64(w.window / g.Lookahead())
		var max, sum uint64
		var peak int
		for i := 0; i < g.Shards(); i++ {
			ex := g.Shard(i).Executed
			sum += ex
			if ex > max {
				max = ex
			}
			peak += g.Shard(i).PeakPending
		}
		counts["sim.shard.imbalance"] = float64(max) * float64(g.Shards()) / float64(sum)
		counts["sim.peak_pending"] = float64(peak)
	} else {
		counts["sim.peak_pending"] = float64(c.Eng.PeakPending)
	}

	invariant := ""
	if fp.Events == 0 || fp.Delivered == 0 {
		invariant = "simulation did no work"
	}
	if sc.el != nil {
		started := len(sc.el.Conns)
		counts["workload.flows_started"] = float64(started)
		counts["workload.flows_finished"] = 0
		for i, conn := range sc.el.Conns {
			if conn.Acked() == 0 {
				invariant = fmt.Sprintf("elephant %d (%d->%d) moved no bytes", i, conn.Src, conn.Dst)
				break
			}
		}
	}
	if sc.gen != nil {
		var started, finished int
		fct := &metrics.Dist{}
		for _, cr := range sc.gen.Results(c.Now()) {
			started += cr.Started
			finished += cr.Finished
			for _, v := range cr.FCT.Samples() {
				fct.Add(v)
			}
		}
		fp.FlowsFinished = finished
		fp.FCTP50, fp.FCTP99 = fct.Percentile(50), fct.Percentile(99)
		counts["workload.flows_started"] = float64(started)
		counts["workload.flows_finished"] = float64(finished)
		if started == 0 || float64(finished) < 0.99*float64(started) {
			invariant = fmt.Sprintf("only %d of %d flows finished", finished, started)
		}
	}
	return fp, counts, invariant
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	r := q * float64(len(s)-1)
	lo := int(r)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}
