package fabric

import (
	"fmt"

	"presto/internal/sim"
	"presto/internal/topo"
)

// LinkSample is one point in a monitored link-direction time series.
type LinkSample struct {
	At          sim.Time `json:"at_ns"`
	QueuedBytes int      `json:"queued_bytes"`
	// Utilization is the fraction of the link's capacity used over the
	// interval ending at At.
	Utilization float64 `json:"utilization"`
}

// Monitor samples per-link queue depth and interval utilization on a
// fixed period. It only reads data-plane state, so enabling it shifts
// engine sequence numbers without changing any simulated outcome; it
// is started only when telemetry is requested.
type Monitor struct {
	net      *Network
	interval sim.Time
	max      int // per-series sample cap

	// lastTx and series are indexed like Network.pipes.
	lastTx    []uint64
	series    [][]LinkSample
	truncated bool
	started   bool
}

// DefaultMonitorInterval spaces samples widely enough that multi-second
// runs stay within the default cap.
const DefaultMonitorInterval = 100 * sim.Microsecond

// DefaultMonitorSamples caps each link-direction series.
const DefaultMonitorSamples = 4096

// NewMonitor creates a monitor over n. Zero interval or cap select the
// defaults.
func NewMonitor(n *Network, interval sim.Time, maxSamples int) *Monitor {
	if interval <= 0 {
		interval = DefaultMonitorInterval
	}
	if maxSamples <= 0 {
		maxSamples = DefaultMonitorSamples
	}
	return &Monitor{
		net:      n,
		interval: interval,
		max:      maxSamples,
		lastTx:   make([]uint64, len(n.pipes)),
		series:   make([][]LinkSample, len(n.pipes)),
	}
}

// Start schedules the sampling loop. Safe to call once per monitor.
func (m *Monitor) Start() {
	if m == nil || m.started {
		return
	}
	m.started = true
	for k := range m.net.pipes {
		m.lastTx[k] = m.net.pipes[k].TxBytes
	}
	m.net.Eng.Schedule(m.interval, m.tick)
}

func (m *Monitor) tick() {
	now := m.net.Eng.Now()
	for k := range m.net.pipes {
		p := &m.net.pipes[k]
		s := m.series[k]
		if len(s) >= m.max {
			m.truncated = true
			continue
		}
		sent := p.TxBytes - m.lastTx[k]
		m.lastTx[k] = p.TxBytes
		capBits := m.interval.Seconds() * float64(p.link.BitsPerSec)
		util := 0.0
		if capBits > 0 {
			util = float64(sent*8) / capBits
		}
		m.series[k] = append(s, LinkSample{At: now, QueuedBytes: p.QueuedBytes(), Utilization: util})
	}
	m.net.Eng.Schedule(m.interval, m.tick)
}

// Series returns the samples for one link direction (nil if none).
func (m *Monitor) Series(link int, from int) []LinkSample {
	if m == nil || link < 0 || link >= len(m.net.Topo.Links) {
		return nil
	}
	if i := m.net.pipeIndex(topo.LinkID(link), topo.NodeID(from)); i >= 0 {
		return m.series[i]
	}
	return nil
}

// TelemetrySnapshot summarizes each monitored series: sample count,
// queue-depth watermark seen by the sampler, and peak/mean interval
// utilization. Raw series stay in memory (see Series) rather than
// bloating every snapshot.
func (m *Monitor) TelemetrySnapshot() map[string]any {
	out := make(map[string]any, len(m.series)+2)
	for k, s := range m.series {
		if len(s) == 0 {
			continue
		}
		maxQ, peakU, sumU := 0, 0.0, 0.0
		for _, pt := range s {
			if pt.QueuedBytes > maxQ {
				maxQ = pt.QueuedBytes
			}
			if pt.Utilization > peakU {
				peakU = pt.Utilization
			}
			sumU += pt.Utilization
		}
		p := &m.net.pipes[k]
		key := fmt.Sprintf("link%d:%d->%d", p.link.ID, p.from, p.dst)
		out[key] = map[string]any{
			"samples":          len(s),
			"max_queued_bytes": maxQ,
			"peak_utilization": peakU,
			"mean_utilization": sumU / float64(len(s)),
		}
	}
	out["interval_ns"] = int64(m.interval)
	out["truncated"] = m.truncated
	return out
}
