package sim

import "testing"

// These tests pin the delay-lane queue's edge cases: tombstones left by
// Cancel, ties between lane and heap events, clamped past times, lane
// reuse after a drain, and the live-event accounting behind Pending.

func TestEngineCancelLaneEvent(t *testing.T) {
	e := NewEngine()
	var fired []int
	a := e.Schedule(Microsecond, func() { fired = append(fired, 0) })
	b := e.Schedule(Microsecond, func() { fired = append(fired, 1) })
	c := e.Schedule(Microsecond, func() { fired = append(fired, 2) })
	if e.arena[b.slot].pos != posLane {
		t.Fatalf("plain Schedule did not use a lane (pos %d)", e.arena[b.slot].pos)
	}
	// b sits mid-lane: canceling it leaves a tombstone.
	if !e.Cancel(b) {
		t.Fatal("Cancel of a queued lane event returned false")
	}
	if e.Armed(b) {
		t.Fatal("canceled lane event still reports armed")
	}
	if e.Cancel(b) {
		t.Fatal("second Cancel of the same lane event returned true")
	}
	if e.arena[b.slot].pos != posTomb {
		t.Fatalf("mid-lane cancel: slot state %d, want tombstone", e.arena[b.slot].pos)
	}
	if !e.Armed(a) || !e.Armed(c) || e.Pending() != 2 {
		t.Fatalf("neighbours disturbed: armed a=%v c=%v, pending %d", e.Armed(a), e.Armed(c), e.Pending())
	}
	e.RunAll()
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 2 {
		t.Fatalf("fired %v, want [0 2]", fired)
	}
	// The lane drained past the tombstone, so its slot is free again.
	if e.arena[b.slot].pos != posIdle || e.arena[b.slot].fn != nil {
		t.Fatal("tombstone slot not freed after the lane drained")
	}
}

func TestEngineCanceledLaneHeadThenLiveTie(t *testing.T) {
	e := NewEngine()
	var order []string
	// A timer (heap) and two lane events, all at the same instant; the
	// lane head is canceled, so the next lane event must still fire in
	// seq order against the heap event.
	head := e.Schedule(Microsecond, func() { order = append(order, "head") })
	tm := NewTimer(e, func() { order = append(order, "timer") })
	tm.Reset(Microsecond)
	e.Schedule(Microsecond, func() { order = append(order, "live") })
	if !e.Cancel(head) {
		t.Fatal("Cancel of lane head returned false")
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.RunAll()
	if len(order) != 2 || order[0] != "timer" || order[1] != "live" {
		t.Fatalf("order %v, want [timer live]", order)
	}
}

func TestEngineAtPastTimeJoinsCurrentInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(2*Second, func() {
		// 1s is in the past: the event fires now, after what is already
		// queued for this instant, and before later instants.
		e.At(Second, func() { order = append(order, "past") })
		e.Schedule(0, func() { order = append(order, "zero") })
	})
	e.Schedule(2*Second, func() { order = append(order, "queued") })
	e.Schedule(3*Second, func() { order = append(order, "later") })
	var at Time
	e.Schedule(2*Second, func() { at = e.Now() })
	e.RunAll()
	want := []string{"queued", "past", "zero", "later"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if at != 2*Second {
		t.Fatalf("clock %v at the 2s instant", at)
	}
}

// collidingDelay returns a delay other than d that maps to d's lane.
func collidingDelay(t *testing.T, d Time) Time {
	t.Helper()
	for c := d + 1; c < d+1_000_000; c++ {
		if laneFor(c) == laneFor(d) {
			return c
		}
	}
	t.Fatal("no colliding delay found")
	return 0
}

func TestEngineLaneReuseAfterDrain(t *testing.T) {
	e := NewEngine()
	d1 := 1230 * Nanosecond
	d2 := collidingDelay(t, d1)
	li := laneFor(d1)
	var got []Time
	note := func() { got = append(got, e.Now()) }

	// While d1 holds the lane, a d2 event cannot join it and uses the
	// heap; both still fire in time order.
	x := e.Schedule(d1, note)
	y := e.Schedule(d2, note)
	if e.arena[x.slot].pos != posLane || e.arena[y.slot].pos < 0 {
		t.Fatalf("states: d1 %d (want lane), d2 %d (want heap)", e.arena[x.slot].pos, e.arena[y.slot].pos)
	}
	e.RunAll()
	if e.lanes[li].q.Len() != 0 || e.laneN != 0 {
		t.Fatal("lane not drained")
	}
	// Drained, the lane is free for d2.
	start := e.Now()
	z := e.Schedule(d2, note)
	if e.arena[z.slot].pos != posLane || e.lanes[li].delay != d2 {
		t.Fatalf("drained lane not reused: state %d, lane delay %v", e.arena[z.slot].pos, e.lanes[li].delay)
	}
	e.RunAll()
	want := []Time{min(d1, d2), max(d1, d2), start + d2}
	if len(got) != len(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}

func TestEnginePendingCountsLiveEvents(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	check := func(step string, pending, peak int) {
		t.Helper()
		if e.Pending() != pending || e.PeakPending != peak {
			t.Fatalf("%s: pending %d peak %d, want %d and %d", step, e.Pending(), e.PeakPending, pending, peak)
		}
	}
	lane := make([]EventID, 4)
	for i := range lane {
		lane[i] = e.Schedule(Microsecond, nop)
	}
	tm := NewTimer(e, nop)
	tm.Reset(Microsecond / 2)
	check("scheduled", 5, 5)
	e.Cancel(lane[1]) // tombstone: not pending
	e.Cancel(lane[2])
	check("two tombstones", 3, 5)
	tm.Reset(Microsecond / 4) // heap cancel + push
	check("timer rearmed", 3, 5)
	e.Schedule(2*Microsecond, nop)
	check("new lane", 4, 5)
	e.Run(Microsecond) // timer, lane[0], lane[3]
	check("ran to 1us", 1, 5)
	e.Cancel(lane[3]) // already fired
	check("stale cancel", 1, 5)
	e.RunAll()
	check("drained", 0, 5)
	if e.Executed != 4 {
		t.Fatalf("executed %d events, want 4", e.Executed)
	}
}
