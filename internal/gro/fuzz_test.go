package gro

import (
	"sort"
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
)

// FuzzPrestoGRO feeds randomized arrival orders, poll-batch splits,
// and inter-batch gaps into Presto GRO and checks its two safety
// properties: the reassembled byte stream is identical to what
// in-order delivery produces (every byte exactly once, no gaps, no
// overlaps), and no segment is left held once all timers drain.
//
// The fuzz input is a raw byte string consumed as a stream of
// decisions: packet count, flowcell width, a Fisher-Yates shuffle,
// then alternating batch sizes and inter-batch delays. Everything is
// derived from the input bytes, so each case replays deterministically.
func FuzzPrestoGRO(f *testing.F) {
	// The Figure 2 interleaving, a straight in-order run, and a
	// single-packet-batch tail-of-window case.
	f.Add([]byte{9, 5, 0, 1, 2, 5, 6, 3, 4, 7, 8, 9, 0})
	f.Add([]byte{16, 4})
	f.Add([]byte{24, 3, 0xff, 0x80, 0x40, 7, 1, 90, 1, 90, 1, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}

		n := int(next())%48 + 2   // packets in the window
		cell := int(next())%8 + 1 // full-MSS packets per flowcell

		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := int(next()) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}

		eng := sim.NewEngine()
		out := &sink{}
		g := NewPresto(eng, out, PrestoConfig{InitialEWMA: 200 * sim.Microsecond})

		// Split the arrival order into poll batches at fuzz-chosen
		// boundaries and feed each at a fuzz-chosen simulated time, so
		// boundary gaps can resolve within a poll, across polls, or time
		// out as loss.
		at := sim.Time(0)
		for idx := 0; idx < n; {
			end := idx + int(next())%8 + 1
			if end > n {
				end = n
			}
			batch := order[idx:end]
			idx = end
			at += sim.Time(int(next())%100) * sim.Microsecond
			eng.At(at, func() {
				for _, i := range batch {
					g.Receive(pkt(i, uint32(1+i/cell)))
				}
				g.Flush()
			})
		}
		eng.RunAll() // drain every hold timer

		if held := g.HeldSegments(); held != 0 {
			t.Fatalf("held-segment leak: %d segments still buffered after all timers drained", held)
		}

		// Reference: the same window fed strictly in order.
		refEng := sim.NewEngine()
		refOut := &sink{}
		ref := NewPresto(refEng, refOut, PrestoConfig{InitialEWMA: 200 * sim.Microsecond})
		for i := 0; i < n; i++ {
			ref.Receive(pkt(i, uint32(1+i/cell)))
		}
		ref.Flush()
		refEng.RunAll()

		if got, want := coverage(t, out.dataSegs()), coverage(t, refOut.dataSegs()); got != want {
			t.Fatalf("reassembled stream %+v does not match in-order delivery %+v", got, want)
		}
	})
}

// extent is the byte range a delivered segment stream reassembles to.
type extent struct {
	start, end uint32
	bytes      int
}

// coverage sorts the delivered data segments by sequence and asserts
// they tile a contiguous byte range exactly once — no gap, no overlap,
// no duplicate delivery — returning that range.
func coverage(t *testing.T, segs []*packet.Segment) extent {
	t.Helper()
	if len(segs) == 0 {
		return extent{}
	}
	sorted := append([]*packet.Segment(nil), segs...)
	sort.Slice(sorted, func(i, j int) bool {
		return packet.SeqLT(sorted[i].StartSeq, sorted[j].StartSeq)
	})
	ext := extent{start: sorted[0].StartSeq}
	nextSeq := sorted[0].StartSeq
	for _, s := range sorted {
		if s.StartSeq != nextSeq {
			t.Fatalf("stream not contiguous: segment [%d,%d) after byte %d", s.StartSeq, s.EndSeq, nextSeq)
		}
		nextSeq = s.EndSeq
		ext.bytes += s.Len()
	}
	ext.end = nextSeq
	return ext
}

// FuzzPrestoGROFlows interleaves 2-4 flows through one Presto GRO
// handler, with reordering inside each flow, idle gaps long enough for
// holds to drain, and flows going idle and coming back. It checks that
// each flow's byte stream is exact, that nothing is held once the
// timers drain, that every Flush delivers in first-seen flow order, and
// that the active list holds exactly the flows with segments.
//
// Input bytes are consumed as: flow count, then per flow its packet
// count, flowcell width and a Fisher-Yates shuffle of its arrival
// order, then alternating poll batches (size, then one flow choice per
// slot) and inter-batch delays.
func FuzzPrestoGROFlows(f *testing.F) {
	f.Add([]byte{0, 6, 2, 0, 0, 0, 0, 0, 6, 2, 0, 0, 0, 0, 0, 3, 0, 1, 0, 10, 3, 1, 0, 1, 0xf0, 3, 0, 1, 0})
	f.Add([]byte{2, 9, 5, 0, 1, 2, 5, 6, 3, 4, 7, 8, 4, 1, 3, 2, 1, 12, 3, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{1, 20, 3, 0xff, 0x80, 0x40, 20, 4, 1, 2, 3, 20, 2, 9, 9, 9, 7, 0, 1, 2, 0, 0xc8, 7, 2, 2, 2, 1, 1, 0, 0, 0xe0, 7, 0, 1, 2, 0, 1, 2, 0, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}

		type flowPlan struct {
			key   packet.FlowKey
			n     int   // packets in the flow's window
			cell  int   // full-MSS packets per flowcell
			order []int // arrival order of packet indices
			sent  int   // packets fed so far
		}
		flows := make([]*flowPlan, int(next())%3+2)
		for i := range flows {
			fp := &flowPlan{key: flowKey(uint16(4000 + i)), n: int(next())%24 + 1, cell: int(next())%8 + 1}
			fp.order = make([]int, fp.n)
			for j := range fp.order {
				fp.order[j] = j
			}
			for j := fp.n - 1; j > 0; j-- {
				k := int(next()) % (j + 1)
				fp.order[j], fp.order[k] = fp.order[k], fp.order[j]
			}
			flows[i] = fp
		}
		left := 0
		for _, fp := range flows {
			left += fp.n
		}

		eng := sim.NewEngine()
		out := &flowSink{eng: eng}
		g, flush := flushCounting(eng, out, PrestoConfig{InitialEWMA: 200 * sim.Microsecond})
		rank := make(map[packet.FlowKey]int)

		at := sim.Time(0)
		for left > 0 {
			var batch []*packet.Packet
			for size := int(next())%8 + 1; size > 0 && left > 0; size-- {
				// Take the next packet of the chosen flow, or of the
				// next flow with packets left.
				fi := int(next()) % len(flows)
				for flows[fi].sent == flows[fi].n {
					fi = (fi + 1) % len(flows)
				}
				fp := flows[fi]
				i := fp.order[fp.sent]
				fp.sent++
				left--
				batch = append(batch, pktOf(fp.key, i, uint32(1+i/fp.cell)))
			}
			// Short gaps keep holds in flight; a high byte is an idle
			// gap long enough for every hold to time out.
			if d := next(); d >= 0xc0 {
				at += sim.Time(d&0x3f+1) * 50 * sim.Microsecond
			} else {
				at += sim.Time(d%100) * sim.Microsecond
			}
			eng.At(at, func() {
				for _, p := range batch {
					if _, ok := rank[p.Flow]; !ok {
						rank[p.Flow] = len(rank)
					}
					g.Receive(p)
				}
				flush()
				checkActive(t, g)
			})
		}
		eng.RunAll() // drain every hold timer

		if held := g.HeldSegments(); held != 0 || len(g.active) != 0 {
			t.Fatalf("after all timers drained: %d segments held, %d flows active", held, len(g.active))
		}
		checkActive(t, g)
		checkFlushOrder(t, out.got, rank)
		for _, fp := range flows {
			var segs []*packet.Segment
			for _, d := range out.got {
				if d.flow == fp.key {
					segs = append(segs, d.seg)
				}
			}
			want := extent{start: 0, end: uint32(fp.n * packet.MSS), bytes: fp.n * packet.MSS}
			if got := coverage(t, segs); got != want {
				t.Fatalf("flow %d reassembled %+v, want %+v", fp.key.Src.Port, got, want)
			}
		}
	})
}
