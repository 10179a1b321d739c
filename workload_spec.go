package presto

import (
	"fmt"

	"presto/internal/campaign"
	"presto/internal/metrics"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/workload"
	wspec "presto/internal/workload/spec"
)

// This file wires declarative workload specs (internal/workload/spec)
// into the experiment harness: RunSpecWorkload executes one spec on
// one system, SpecWorkloadCell wraps that as a campaign cell carrying
// the spec hash, and SpecWorkloadCampaign sweeps a spec across the §4
// system lineup — what a Scenario compiles a spec workload to.

// specTopo returns the testbed for sys, attaching the Table 2-style
// 100 Mbps remote users when the spec has north-south clients
// (mirroring RunNorthSouth's topology setup).
func specTopo(sys System, ws *wspec.Spec) *topo.Topology {
	if !ws.NeedsRemotes() {
		return topoFor(sys, Testbed)
	}
	if sys == SysOptimal {
		tp := OptimalTopo(16)
		for i := 0; i < 4; i++ {
			tp.MarkRemote(tp.AddLeafHost(tp.Leaves[0], 100e6, 5*sim.Microsecond))
		}
		return tp
	}
	tp := Testbed()
	for _, s := range tp.Spines {
		tp.AddSpineHost(s, 100e6, 5*sim.Microsecond)
	}
	return tp
}

// RunSpecWorkload compiles and runs a workload spec on one system:
// warmup, baseline reset, measurement window, then a LoadResult
// harvested from the generator (elephant throughput/fairness when the
// spec has unlimited clients, FCTs of every sized flow, switch loss)
// plus RTT probes over the testbed stride pairs.
func RunSpecWorkload(sys System, ws *wspec.Spec, opt Options) (LoadResult, []wspec.ClientResult, error) {
	opt.fill()
	return runSpecOn(sys, specTopo(sys, ws), ws, opt, hostPairs(16, 8))
}

// RunSpecWorkloadOn runs a workload spec on an explicit topology —
// the scheme-matrix engine. Unlike RunSpecWorkload (frozen to the
// Figure 3 testbed and its historical prober pairs), the probe pairs
// scale with the topology's server count.
func RunSpecWorkloadOn(sys System, tp *topo.Topology, ws *wspec.Spec, opt Options) (LoadResult, []wspec.ClientResult, error) {
	opt.fill()
	n := 0
	for i := 0; i < tp.NumHosts(); i++ {
		if !tp.IsRemote(packet.HostID(i)) {
			n++
		}
	}
	return runSpecOn(sys, tp, ws, opt, hostPairs(n, n/2))
}

// runSpecOn is the shared body: compile the spec onto a cluster,
// warm up, measure, and harvest a LoadResult plus per-client results.
func runSpecOn(sys System, tp *topo.Topology, ws *wspec.Spec, opt Options, pairs [][2]packet.HostID) (LoadResult, []wspec.ClientResult, error) {
	c := buildCluster(sys, tp, opt)
	g, err := wspec.Compile(ws, c, opt.Seed)
	if err != nil {
		return LoadResult{}, nil, err
	}
	probers := workload.StartProbers(c, pairs, opt.ProbeInterval)
	until := opt.Warmup + opt.Duration
	g.Start(until)
	c.Eng.Run(opt.Warmup)
	g.ResetBaseline(c.Eng.Now())
	c.Eng.Run(until)

	res := LoadResult{System: sys, Seed: opt.Seed, LossRate: c.Net.LossRate(), Fairness: 1}
	res.MeanTput = g.MeanTput(c.Eng.Now())
	if f := g.Fairness(c.Eng.Now()); f > 0 {
		res.Fairness = f
	}
	res.RTT = workload.CollectRTT(probers)
	clients := g.Results(c.Eng.Now())
	fct := &metrics.Dist{}
	timeouts := 0
	for _, cr := range clients {
		if cr.FCT != nil {
			for _, v := range cr.FCT.Samples() {
				fct.Add(v)
			}
		}
		timeouts += cr.Timeouts
	}
	if fct.N() > 0 {
		res.FCT = fct
		res.MiceTimeouts = timeouts
	}
	res.Telemetry = c.Telemetry().Snapshot(c.Eng.Now())
	return res, clients, nil
}

// SpecWorkloadCell builds one campaign cell running a workload spec on
// one system. The cell ID embeds the spec name and the cell carries
// the spec hash, so artifacts key on the exact workload.
func SpecWorkloadCell(sys System, ws *wspec.Spec, opt Options) campaign.Cell {
	return campaign.Cell{
		Experiment: "workload-spec",
		ID:         fmt.Sprintf("workload-spec/wl=%s/sys=%v", ws.Name, sys),
		Workload:   ws.Hash(),
		Run: func(seed uint64) (campaign.Result, error) {
			o := opt
			o.Seed = seed
			r, clients, err := RunSpecWorkload(sys, ws, o)
			if err != nil {
				return campaign.Result{}, err
			}
			res := loadCellResult(r)
			res.Detail = RunDetail{System: sys, Workload: fmt.Sprintf("%s(spec %s)", ws.Name, ws.Hash()), Load: r, Clients: clients}
			// Per-client outcomes ride along so multi-client specs stay
			// diagnosable (e.g. mice vs elephants of mice-heavy).
			for _, cr := range clients {
				p := "client_" + cr.ID
				res.Metrics[p+"_started"] = float64(cr.Started)
				res.Metrics[p+"_finished"] = float64(cr.Finished)
				if cr.FCT != nil && cr.FCT.N() > 0 {
					res.Metrics[p+"_fct_ms_p99"] = cr.FCT.Percentile(99)
					if res.Dists == nil {
						res.Dists = map[string]*metrics.Dist{}
					}
					res.Dists["fct_ms_"+cr.ID] = cr.FCT
				}
				if cr.Tput > 0 {
					res.Metrics[p+"_tput_gbps"] = cr.Tput
				}
			}
			return res, nil
		},
	}
}

// SpecWorkloadCampaign sweeps one workload spec across systems. The
// spec hash is recorded both per cell and as a campaign param, so the
// campaign hash — and any golden gate — pins the exact workload.
func SpecWorkloadCampaign(ws *wspec.Spec, systems []System, opt Options) *campaign.Spec {
	opt.fill()
	cs := &campaign.Spec{Name: "workload-spec/" + ws.Name, Params: windowParams(opt)}
	cs.Params["workload"] = ws.Hash()
	for _, sys := range systems {
		cs.Cells = append(cs.Cells, SpecWorkloadCell(sys, ws, opt))
	}
	return cs
}
