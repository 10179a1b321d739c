package gro

import (
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
)

// flowSink records every delivered segment with the number of the
// Flush that pushed it. The driver bumps flush before each Flush it
// calls, and flushCounting routes the hold timer through it too.
type flowSink struct {
	eng   *sim.Engine
	flush int
	got   []delivery
}

type delivery struct {
	flow  packet.FlowKey
	flush int
	at    sim.Time
	seg   *packet.Segment
}

func (s *flowSink) DeliverSegment(seg *packet.Segment) {
	s.got = append(s.got, delivery{flow: seg.Flow, flush: s.flush, at: s.eng.Now(), seg: seg})
}

// flushCounting returns a Presto handler whose hold timer counts its
// flushes in out, and a poll-side flush that does the same.
func flushCounting(eng *sim.Engine, out *flowSink, cfg PrestoConfig) (*Presto, func()) {
	g := NewPresto(eng, out, cfg)
	flush := func() {
		out.flush++
		g.Flush()
	}
	g.timer = sim.NewTimer(eng, flush)
	return g, flush
}

// checkActive asserts the active-list invariant: exactly the flows
// holding segments are listed, in strictly increasing first-seen index.
func checkActive(t *testing.T, g *Presto) {
	t.Helper()
	for i, f := range g.active {
		if !f.active || len(f.segs) == 0 {
			t.Fatalf("active[%d] (idx %d) holds %d segments, active=%v", i, f.idx, len(f.segs), f.active)
		}
		if i > 0 && g.active[i-1].idx >= f.idx {
			t.Fatalf("active list out of first-seen order: idx %d before %d", g.active[i-1].idx, f.idx)
		}
	}
	n := 0
	for _, f := range g.flows {
		if f.active {
			n++
		} else if len(f.segs) != 0 {
			t.Fatalf("inactive flow idx %d holds %d segments", f.idx, len(f.segs))
		}
	}
	if n != len(g.active) {
		t.Fatalf("%d flows flagged active, %d listed", n, len(g.active))
	}
}

// checkFlushOrder asserts that within every flush, deliveries come in
// the flows' first-seen order (rank), each flow's run contiguous.
func checkFlushOrder(t *testing.T, got []delivery, rank map[packet.FlowKey]int) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		prev, cur := got[i-1], got[i]
		if prev.flush == cur.flush && rank[prev.flow] > rank[cur.flow] {
			t.Fatalf("flush %d delivered flow rank %d after rank %d", cur.flush, rank[cur.flow], rank[prev.flow])
		}
	}
}

func flowKey(port uint16) packet.FlowKey {
	return packet.FlowKey{
		Src: packet.Addr{Host: 1, Port: port},
		Dst: packet.Addr{Host: 2, Port: 5000},
	}
}

// pktOf builds a full-MSS data packet of flow at index i in flowcell fc.
func pktOf(flow packet.FlowKey, i int, fc uint32) *packet.Packet {
	p := pkt(i, fc)
	p.Flow = flow
	return p
}

// TestPrestoIdleFlowReturns covers a flow that drains, goes idle and
// comes back while a later-seen flow is active. The returning flow is
// delivered first in the shared poll (first-seen order, whatever the
// arrival order), and its learned hold estimate and flowcell survive
// the idle period.
func TestPrestoIdleFlowReturns(t *testing.T) {
	flowA, flowB := flowKey(4000), flowKey(4001)
	type arrival struct {
		flow packet.FlowKey
		i    int
		fc   uint32
	}
	// A's return: the rest of flowcell 2 in order, then the head of
	// flowcell 3 past a missing packet — a boundary gap. B's packet
	// continues B in order (or fills B's own held boundary gap).
	a3, a5, b1 := arrival{flowA, 3, 2}, arrival{flowA, 5, 3}, arrival{flowB, 1, 1}
	cases := []struct {
		name   string
		bHeld  bool // B holds a boundary gap when A returns
		arrive []arrival
	}{
		{"B first", false, []arrival{b1, a3, a5}},
		{"A first", false, []arrival{a3, a5, b1}},
		{"interleaved", false, []arrival{a3, b1, a5}},
		{"B holding, B first", true, []arrival{b1, a3, a5}},
		{"B holding, A first", true, []arrival{a3, a5, b1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			out := &flowSink{eng: eng}
			cfg := DefaultPrestoConfig()
			g, flush := flushCounting(eng, out, cfg)
			poll := func(at sim.Time, arr ...arrival) {
				eng.At(at, func() {
					for _, x := range arr {
						g.Receive(pktOf(x.flow, x.i, x.fc))
					}
					flush()
					checkActive(t, g)
				})
			}

			// A learns a 40us resolution time and drains by 40us.
			poll(0, arrival{flowA, 0, 1})
			poll(0, arrival{flowA, 2, 2})
			poll(40*sim.Microsecond, arrival{flowA, 1, 1})
			// B arrives after A has gone idle.
			poll(50*sim.Microsecond, arrival{flowB, 0, 1})
			if tc.bHeld {
				poll(60*sim.Microsecond, arrival{flowB, 2, 2})
			}
			eng.Run(90 * sim.Microsecond)

			fA := g.flows[flowA]
			if fA.active || len(fA.segs) != 0 {
				t.Fatalf("A not idle before it returns: active=%v segs=%d", fA.active, len(fA.segs))
			}
			if fA.lastFlowcell != 2 || fA.expSeq != 3*packet.MSS {
				t.Fatalf("A idle state: lastFlowcell %d expSeq %d, want 2 and %d", fA.lastFlowcell, fA.expSeq, 3*packet.MSS)
			}
			learned := g.holdBudget(fA)
			if learned == cfg.InitialEWMA {
				t.Fatal("A learned no hold estimate")
			}
			if tc.bHeld != (len(g.active) == 1) {
				t.Fatalf("before A returns: %d active flows, B holding=%v", len(g.active), tc.bHeld)
			}

			const back = 100 * sim.Microsecond
			poll(back, tc.arrive...)
			eng.Run(back)
			var inPoll []delivery
			for _, d := range out.got {
				if d.at == back {
					inPoll = append(inPoll, d)
				}
			}
			wantB := 1
			if tc.bHeld {
				wantB = 2 // B's fill releases its held flowcell-2 segment too
			}
			if len(inPoll) != 1+wantB {
				t.Fatalf("return poll delivered %d segments, want %d", len(inPoll), 1+wantB)
			}
			if inPoll[0].flow != flowA || inPoll[0].seg.StartSeq != 3*packet.MSS {
				t.Fatalf("first delivery of the return poll is %+v, want A's in-order segment", inPoll[0].seg)
			}
			for _, d := range inPoll[1:] {
				if d.flow != flowB {
					t.Fatalf("A delivered after B in one flush: %+v", d.seg)
				}
			}
			if fA.lastFlowcell != 2 || fA.expSeq != 4*packet.MSS {
				t.Fatalf("A after return: lastFlowcell %d expSeq %d, want 2 and %d", fA.lastFlowcell, fA.expSeq, 4*packet.MSS)
			}
			if g.HeldSegments() != 1 || len(g.active) != 1 || g.active[0] != fA {
				t.Fatalf("after the return poll: %d held, %d active; want A's gap held alone", g.HeldSegments(), len(g.active))
			}

			// The boundary gap times out on the learned budget.
			eng.RunAll()
			last := out.got[len(out.got)-1]
			if last.flow != flowA || last.seg.StartSeq != 5*packet.MSS {
				t.Fatalf("last delivery %+v, want A's held segment", last.seg)
			}
			if want := back + sim.Time(cfg.Alpha*float64(learned)); last.at != want {
				t.Fatalf("held segment released at %v, want %v (alpha x learned %v, not InitialEWMA %v)", last.at, want, learned, cfg.InitialEWMA)
			}
			if g.Stats().TimeoutFires != 1 || g.HeldSegments() != 0 || len(g.active) != 0 {
				t.Fatalf("after drain: %d timeouts, %d held, %d active", g.Stats().TimeoutFires, g.HeldSegments(), len(g.active))
			}
			checkFlushOrder(t, out.got, map[packet.FlowKey]int{flowA: 0, flowB: 1})
		})
	}
}
