package presto

import (
	"presto/internal/cluster"
	"presto/internal/packet"
	"presto/internal/topo"
	"presto/internal/workload"
)

// PodTopo returns a pod-based 3-tier Clos for the pod-scale
// experiment: `pods` pods of 2 aggregation switches and 2 leaves
// each, `hostsPerLeaf` hosts per leaf (2·pods·hostsPerLeaf hosts
// total), wired to 2 cores.
func PodTopo(pods, hostsPerLeaf int) *topo.Topology {
	return topo.ThreeTierClos(pods, 2, 2, hostsPerLeaf, topo.LinkConfig{})
}

// PodTrafficResult is the output of the pod-scale experiment.
type PodTrafficResult struct {
	System System
	Seed   uint64
	Pods   int
	Hosts  int
	// Shards is the number of engine shards the run actually used
	// (requests above the pod count are capped).
	Shards   int
	MeanTput float64 // mean per-elephant goodput, Gbps
	Fairness float64 // Jain's index over elephant goodputs
	LossRate float64 // switch-counter loss fraction
	// Delivered counts packets handed to host NICs; Events counts
	// engine events executed across all shards. Both are bit-identical
	// across shard counts.
	Delivered uint64
	Events    uint64
}

// RunPodTraffic drives one cross-pod elephant per host (each host
// sends to the same-position host one pod over) on a pod-based 3-tier
// Clos — the datacenter-scale pattern the sharded engine exists for.
// Options.Shards selects the engine partitioning; any shard count
// produces bit-identical results, so the knob only trades wall-clock
// time.
func RunPodTraffic(sys System, pods, hostsPerLeaf int, opt Options) PodTrafficResult {
	opt.fill()
	tp := topoFor(sys, func() *topo.Topology { return PodTopo(pods, hostsPerLeaf) })
	cfg := sys.ClusterConfig(tp, opt)
	cfg.Shards = opt.Shards
	c := cluster.New(cfg)

	n := tp.NumHosts()
	perPod := n / pods
	pairs := make([][2]packet.HostID, 0, n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, [2]packet.HostID{packet.HostID(i), packet.HostID((i + perPod) % n)})
	}
	el := workload.Pairs(c, pairs)

	c.Run(opt.Warmup)
	el.ResetBaseline(c.Now())
	c.Run(opt.Warmup + opt.Duration)
	return PodTrafficResult{
		System:    sys,
		Seed:      opt.Seed,
		Pods:      pods,
		Hosts:     n,
		Shards:    c.Shards(),
		MeanTput:  el.Mean(c.Now()),
		Fairness:  el.Fairness(c.Now()),
		LossRate:  c.Net.LossRate(),
		Delivered: c.Net.TotalDelivered(),
		Events:    c.Executed(),
	}
}
