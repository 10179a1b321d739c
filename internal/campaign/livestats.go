package campaign

import (
	"fmt"
	"sort"
	"sync"

	"presto/internal/metrics"
)

// LiveStats accumulates mergeable quantile sketches of every named
// distribution as replicas finish, so a long-running campaign can
// report p50/p95/p99/p999 mid-flight at O(buckets) memory. Sketch
// merging is commutative and associative, so the accumulated state —
// and every quantile read from it — is independent of worker
// completion order, preserving the campaign's determinism guarantee.
//
// A nil *LiveStats disables collection: every method is a
// nil-receiver-safe no-op. All methods are safe for concurrent use
// (workers observe while HTTP handlers read).
type LiveStats struct {
	mu       sync.Mutex
	alpha    float64
	dists    map[string]*metrics.Sketch
	replicas uint64
}

// NewLiveStats returns an empty accumulator with the given sketch
// relative-error bound (out-of-range alpha falls back to
// metrics.DefaultSketchAlpha).
func NewLiveStats(alpha float64) *LiveStats {
	if alpha <= 0 || alpha >= 1 {
		alpha = metrics.DefaultSketchAlpha
	}
	return &LiveStats{alpha: alpha, dists: make(map[string]*metrics.Sketch)}
}

// observe folds one successful replica's distributions into the
// accumulated sketches. Called by the campaign runner's workers.
func (ls *LiveStats) observe(res Result) {
	if ls == nil {
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.replicas++
	for name, d := range res.Dists {
		if d == nil || d.N() == 0 {
			continue
		}
		sk := d.Sketch(ls.alpha)
		if sk == nil {
			continue
		}
		acc := ls.dists[name]
		if acc == nil {
			ls.dists[name] = sk
			continue
		}
		// Dist.Sketch builds at ls.alpha, the accumulator's alpha, so
		// Merge cannot fail.
		_ = acc.Merge(sk)
	}
}

// Alpha returns the accumulator's relative-error bound.
func (ls *LiveStats) Alpha() float64 {
	if ls == nil {
		return 0
	}
	return ls.alpha
}

// Replicas returns how many successful replicas have been observed.
func (ls *LiveStats) Replicas() uint64 {
	if ls == nil {
		return 0
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.replicas
}

// Names returns the observed distribution names, sorted.
func (ls *LiveStats) Names() []string {
	if ls == nil {
		return nil
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	names := make([]string, 0, len(ls.dists))
	for n := range ls.dists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sketch returns a clone of the named accumulated sketch, or nil.
func (ls *LiveStats) Sketch(name string) *metrics.Sketch {
	if ls == nil {
		return nil
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.dists[name].Clone()
}

// Quantiles evaluates qs (fractions in [0,1]) on every accumulated
// distribution: name → values in qs order. Names are not sorted in
// the map; use Names for deterministic iteration.
func (ls *LiveStats) Quantiles(qs ...float64) map[string][]float64 {
	if ls == nil {
		return nil
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	out := make(map[string][]float64, len(ls.dists))
	for name, sk := range ls.dists {
		vals := make([]float64, len(qs))
		for i, q := range qs {
			vals[i] = sk.Quantile(q)
		}
		out[name] = vals
	}
	return out
}

// probe reports live quantile gauges to the telemetry registry (the
// "stats" component): <dist>.p50/p95/p99/p999 plus sample counts.
func (ls *LiveStats) probe() map[string]any {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	m := map[string]any{"replicas_observed": ls.replicas}
	for name, sk := range ls.dists {
		m[fmt.Sprintf("%s.n", name)] = sk.N()
		m[fmt.Sprintf("%s.p50", name)] = sk.Quantile(0.50)
		m[fmt.Sprintf("%s.p95", name)] = sk.Quantile(0.95)
		m[fmt.Sprintf("%s.p99", name)] = sk.Quantile(0.99)
		m[fmt.Sprintf("%s.p999", name)] = sk.Quantile(0.999)
	}
	return m
}
