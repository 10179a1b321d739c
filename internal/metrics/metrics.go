// Package metrics provides the measurement primitives the evaluation
// harness uses: sample distributions with percentiles/CDFs, Jain's
// fairness index, exponentially-weighted moving averages, and periodic
// time-series samplers. All of it is allocation-light and has no
// dependencies beyond the standard library.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Dist is an online collection of float64 samples supporting percentile
// queries. The zero value is ready to use and stores samples exactly;
// Sketch derives a mergeable, bounded-memory summary of them.
//
// NaN and ±Inf samples are rejected by Add: a single NaN would
// otherwise poison sorting, percentiles, and the mean.
type Dist struct {
	samples []float64
	sorted  bool
}

// Sketch returns a quantile sketch of the samples at the given alpha
// (DefaultSketchAlpha when alpha is out of range), so the result
// merges cleanly with peers built at the same alpha. Returns nil for
// an empty Dist.
func (d *Dist) Sketch(alpha float64) *Sketch {
	if len(d.samples) == 0 {
		return nil
	}
	s := NewSketch(alpha)
	for _, v := range d.samples {
		s.Add(v)
	}
	return s
}

// Add appends a sample. NaN and ±Inf are silently dropped.
func (d *Dist) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	d.samples = append(d.samples, v)
	d.sorted = false
}

// N returns the number of samples.
func (d *Dist) N() int { return len(d.samples) }

// Mean returns the arithmetic mean, or 0 if empty.
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range d.samples {
		sum += v
	}
	return sum / float64(len(d.samples))
}

// Min returns the smallest sample, or 0 if empty.
func (d *Dist) Min() float64 {
	d.sort()
	if len(d.samples) == 0 {
		return 0
	}
	return d.samples[0]
}

// Max returns the largest sample, or 0 if empty.
func (d *Dist) Max() float64 {
	d.sort()
	if len(d.samples) == 0 {
		return 0
	}
	return d.samples[len(d.samples)-1]
}

// Stddev returns the population standard deviation, or 0 if empty.
func (d *Dist) Stddev() float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	mean := d.Mean()
	ss := 0.0
	for _, v := range d.samples {
		dv := v - mean
		ss += dv * dv
	}
	return math.Sqrt(ss / float64(n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. Returns 0 if empty.
func (d *Dist) Percentile(p float64) float64 {
	d.sort()
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.samples[lo]
	}
	frac := rank - float64(lo)
	return d.samples[lo]*(1-frac) + d.samples[hi]*frac
}

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Percentile(50) }

// CDF returns (value, cumulative-fraction) pairs at up to points evenly
// spaced ranks, suitable for plotting a CDF. Returns nil if empty.
func (d *Dist) CDF(points int) []CDFPoint {
	d.sort()
	n := len(d.samples)
	if n == 0 || points <= 0 {
		return nil
	}
	if points > n {
		points = n
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := i * (n - 1) / max(points-1, 1)
		out = append(out, CDFPoint{
			Value:    d.samples[idx],
			Fraction: float64(idx+1) / float64(n),
		})
	}
	return out
}

// FractionBelow returns the fraction of samples <= v.
func (d *Dist) FractionBelow(v float64) float64 {
	d.sort()
	if len(d.samples) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(d.samples, math.Nextafter(v, math.Inf(1)))
	return float64(i) / float64(len(d.samples))
}

// Samples returns a copy of the sorted samples; mutating it cannot
// corrupt the distribution's internal state.
func (d *Dist) Samples() []float64 {
	d.sort()
	out := make([]float64, len(d.samples))
	copy(out, d.samples)
	return out
}

// Summary formats mean and key percentiles in the given unit.
func (d *Dist) Summary(unit string) string {
	return fmt.Sprintf("n=%d mean=%.3f%s p50=%.3f%s p90=%.3f%s p99=%.3f%s p99.9=%.3f%s",
		d.N(), d.Mean(), unit, d.Percentile(50), unit, d.Percentile(90), unit,
		d.Percentile(99), unit, d.Percentile(99.9), unit)
}

func (d *Dist) sort() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// JainIndex computes Jain's fairness index over throughputs:
// (Σx)² / (n·Σx²). 1.0 is perfectly fair; 1/n is maximally unfair.
// Returns 1 for empty or all-zero input (nothing to be unfair about).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// EWMA is an exponentially weighted moving average. The zero value has
// no observations; the first Observe seeds the average directly.
type EWMA struct {
	Alpha float64 // smoothing factor in (0,1]; weight of the new sample
	value float64
	init  bool
}

// Observe folds a new sample into the average.
func (e *EWMA) Observe(v float64) {
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.25
	}
	if !e.init {
		e.value = v
		e.init = true
		return
	}
	e.value = a*v + (1-a)*e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample has been observed.
func (e *EWMA) Initialized() bool { return e.init }

// Series is an append-only (time, value) series for time-series plots
// such as the paper's Figure 6 CPU-usage graph.
type Series struct {
	Times  []float64
	Values []float64
}

// Add appends a point.
func (s *Series) Add(t, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Mean returns the mean of the values, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// N returns the number of points.
func (s *Series) N() int { return len(s.Values) }

// RenderQuantileBars draws a terminal-friendly view of a distribution:
// one bar per percentile, scaled to the distribution's maximum — the
// textual stand-in for the paper's CDF figures.
func RenderQuantileBars(d *Dist, percentiles []float64, width int, unit string) string {
	if d.N() == 0 {
		return "(no samples)\n"
	}
	if width < 10 {
		width = 10
	}
	max := d.Max()
	var b strings.Builder
	for _, p := range percentiles {
		v := d.Percentile(p)
		n := 0
		if max > 0 {
			n = int(v / max * float64(width))
		}
		if n < 0 {
			// Negative samples (e.g. a distribution of deltas) must not
			// produce a negative bar width: strings.Repeat panics.
			n = 0
		}
		if n > width {
			n = width
		}
		fmt.Fprintf(&b, "%6.1f%% |%-*s| %.3f%s\n", p, width, strings.Repeat("*", n), v, unit)
	}
	return b.String()
}

// Table renders rows of labeled values as an aligned text table; the
// experiment harness uses it to print paper-style tables.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with space-padded columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			// Pad all but the last column (no trailing whitespace).
			if i < len(widths) && i < len(cells)-1 {
				for pad := len(c); pad < widths[i]; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
