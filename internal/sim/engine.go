// Package sim provides a deterministic discrete-event simulation engine
// with nanosecond resolution. It is the substrate every other package in
// this repository runs on: links, switches, NICs, GRO timers, and TCP
// retransmission timers are all events scheduled on a single Engine.
//
// Determinism: events that fire at the same instant are executed in the
// order they were scheduled (FIFO tie-break on a monotonically increasing
// sequence number), and all randomness must come from an RNG derived from
// the engine's seed. Two runs with the same seed produce identical
// results.
//
// Performance: the hot path (Schedule → dispatch) is allocation-free in
// steady state. Events live in a pooled arena (a slice of slots recycled
// through a free list), so scheduling neither boxes values into
// interfaces nor touches the garbage collector. The queue is shaped by
// the fabric's lockstep: most events land a fixed delay after now
// (serialization of an MTU or an ACK, link propagation, the NIC poll),
// so an event scheduled d after now joins the FIFO lane for d. Because
// now never decreases and seq only grows, every lane is sorted by
// (at, seq) by construction; a push that would not sort after the
// lane's tail goes to the heap instead. Dispatch is a k-way merge of a
// small binary heap over the lanes' heads and a 4-ary heap for
// everything else, both carrying (at, seq) inline. Lanes live in a
// fixed direct-mapped table keyed by delay: a drained lane is free for
// any delay, and a delay whose table cell is held by another non-empty
// lane uses the heap. Timer.Reset and the shard barrier's keyed inserts
// always use the heap. Arena invariants, for future editors:
//
//   - A slot is in exactly one of five states: in the heap (pos >= 0,
//     its heap index), in a lane (pos == posLane, next = lane index),
//     a tombstone (pos == posTomb), firing (popped this dispatch,
//     pos == posIdle, not yet released), or free (on the free list,
//     pos == posIdle, fn == nil).
//   - Cancel frees a heap slot at once. A canceled lane event becomes a
//     tombstone: its generation is bumped and fn dropped at once, and
//     the slot is freed when the lane drains past it. A lane's front is
//     never a tombstone, so every lane-heap key is a live event's.
//   - EventID carries the slot's generation at allocation time. Every
//     release (and every tombstoning) increments the generation, so a
//     stale EventID — one whose event fired, was canceled, or whose slot
//     was reused — can never cancel or observe the slot's next occupant.
//   - The slot is released *before* its callback runs: from inside a
//     callback, the firing event's own EventID is already dead, and a
//     Schedule there may legitimately reuse the slot.
//   - fn is cleared on release and on tombstoning, so the arena never
//     pins dead closures.
//   - Pending counts live events (heap and lane, not tombstones).
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is a simulated timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations, expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns the time as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// eventSlot is one arena cell. See the package comment for the state
// machine and generation rules.
type eventSlot struct {
	at  Time
	seq uint64 // FIFO tie-break for events at the same instant
	gen uint64 // bumped on every release; EventIDs must match to act
	fn  func()

	pos  int32 // index in Engine.heap, or posLane, posTomb, posIdle
	next int32 // next free slot while free; lane index while in a lane
}

// Slot states other than "in the heap" (pos >= 0).
const (
	posIdle int32 = -1 // firing or free
	posLane int32 = -2 // queued in lane arena[i].next
	posTomb int32 = -3 // canceled in a lane, freed when the lane drains past it
)

// qent is one heap entry: the event key inline, so sifting compares
// without touching the arena, and an arena slot (event heap) or a lane
// index (lane heap).
type qent struct {
	at  Time
	seq uint64
	idx int32
}

// before reports whether a fires before b: (at, seq) ascending.
func (a *qent) before(b *qent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// numLanes bounds the delay lanes. A lockstep fabric has a handful of
// hot delays (serialization sizes, propagation per tier, NIC poll), so
// a 64-cell table keeps them apart with room for transient ones.
const (
	laneBits = 6
	numLanes = 1 << laneBits
)

// lane is a FIFO of events scheduled the same delay after their
// scheduling instant, so sorted by (at, seq).
type lane struct {
	delay Time
	q     Ring[int32] // arena slots, tombstones included; the front is live
	hpos  int32       // index in Engine.laneHeap while q is non-empty
}

// laneFor returns the table cell for delay d (Fibonacci hashing).
func laneFor(d Time) int32 {
	return int32(uint64(d) * 0x9E3779B97F4A7C15 >> (64 - laneBits))
}

// EventID identifies a scheduled event so it can be canceled. The zero
// EventID is invalid and safe to Cancel (a no-op). IDs are generation-
// counted: once the event fires or is canceled, the ID is dead even if
// its arena slot is reused by a later Schedule.
type EventID struct {
	slot int32
	gen  uint64
}

// Engine is a discrete-event simulator. The zero value is not usable;
// create one with NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	arena []eventSlot
	free  int32  // head of the free-slot list, -1 when empty
	heap  []qent // 4-ary min-heap of events outside the lanes
	lanes [numLanes]lane
	// laneHeap[:laneN] is a binary min-heap over the non-empty lanes,
	// keyed by each lane's head event.
	laneHeap [numLanes]qent
	laneN    int
	live     int // queued events, tombstones excluded
	// sh is non-nil when the engine is one shard of a ShardGroup; it
	// redirects sequence-number draws to the group so the global
	// schedule order stays bit-identical to a serial run. See shard.go.
	sh      *shard
	running bool
	// stopped is written by Stop — which may run on another goroutine
	// (prestod job cancel, a Stop-watching test) — and read by the run
	// loop, so it must be atomic.
	stopped atomic.Bool

	// Executed counts events that have run, as a cheap progress/liveness
	// measure for tests and benchmarks.
	Executed uint64
	// PeakPending is the high-water mark of Pending, exposed as a
	// telemetry probe.
	PeakPending int
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{free: -1}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// alloc takes a slot off the free list, growing the arena when empty.
//
//prestolint:noalloc
func (e *Engine) alloc() int32 {
	if i := e.free; i >= 0 {
		e.free = e.arena[i].next
		return i
	}
	//prestolint:allow hotalloc -- arena high-water growth is amortized; steady state reuses the free list (bench-gated 0 allocs/op)
	e.arena = append(e.arena, eventSlot{gen: 1, pos: posIdle, next: -1})
	return int32(len(e.arena) - 1)
}

// release retires a slot: kill its generation, drop the closure, and
// push it onto the free list.
//
//prestolint:noalloc
func (e *Engine) release(i int32) {
	s := &e.arena[i]
	s.gen++
	s.fn = nil
	s.pos = posIdle
	s.next = e.free
	e.free = i
}

// Schedule runs fn after delay. A negative delay is treated as zero
// (the event fires at the current instant, after already-queued events
// for that instant).
//
//prestolint:noalloc
func (e *Engine) Schedule(delay Time, fn func()) EventID {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at the absolute time t. If t is in the past, the event
// fires at the current instant.
//
//prestolint:noalloc
func (e *Engine) At(t Time, fn func()) EventID {
	return e.push(t, fn, true)
}

// push queues fn at t (clamped to now) under the next sequence number:
// in the lane for its delay when useLane is set and the lane takes it,
// in the heap otherwise.
//
//prestolint:noalloc
func (e *Engine) push(t Time, fn func(), useLane bool) EventID {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if t < e.now {
		t = e.now
	}
	var sq uint64
	if e.sh == nil {
		e.seq++
		sq = e.seq
	} else {
		sq = e.sh.nextSeq()
	}
	i := e.alloc()
	s := &e.arena[i]
	s.at, s.seq, s.fn = t, sq, fn
	if !useLane || !e.lanePush(i, t-e.now) {
		e.heapPush(i)
	}
	e.noteQueued()
	id := EventID{slot: i, gen: s.gen}
	if e.sh != nil {
		e.sh.noteLocal(t, id)
	}
	return id
}

// noteQueued counts one more live event.
func (e *Engine) noteQueued() {
	e.live++
	if e.live > e.PeakPending {
		e.PeakPending = e.live
	}
}

// Cancel prevents a scheduled event from firing. Canceling an event that
// already fired, was already canceled, or is the zero EventID is a no-op.
// It reports whether the event was actually canceled.
//
//prestolint:noalloc
func (e *Engine) Cancel(id EventID) bool {
	if id.slot < 0 || int(id.slot) >= len(e.arena) {
		return false
	}
	s := &e.arena[id.slot]
	if s.gen != id.gen {
		return false
	}
	switch {
	case s.pos >= 0:
		e.heapRemove(s.pos)
		e.release(id.slot)
	case s.pos == posLane:
		s.gen++
		s.fn = nil
		s.pos = posTomb
		if li := s.next; e.lanes[li].q.Front() == id.slot {
			e.laneSettle(li)
		}
	default:
		return false
	}
	e.live--
	return true
}

// Armed reports whether id identifies an event that is still queued:
// not yet fired, not canceled. The generation check makes this safe to
// ask about long-dead IDs even after their arena slot was reused.
func (e *Engine) Armed(id EventID) bool {
	if id.slot < 0 || int(id.slot) >= len(e.arena) {
		return false
	}
	s := &e.arena[id.slot]
	return s.gen == id.gen && (s.pos >= 0 || s.pos == posLane)
}

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return e.live }

// Stop makes the in-progress Run/RunAll return after the currently
// executing event completes. Safe to call from inside an event
// callback, and — because the flag is atomic — from another goroutine
// (prestod's job-cancel path stops an engine mid-run). Calling Stop
// while no run is in progress makes the next Run/RunAll return
// immediately (executing nothing); the pending stop is consumed by
// that run. On a shard-owned engine the stop takes effect at the next
// window barrier (see ShardGroup).
func (e *Engine) Stop() { e.stopped.Store(true) }

// Run executes events in timestamp order until the queue drains, Stop is
// called, or the clock would pass until. Events scheduled exactly at
// until still run. It returns the time of the last executed event (or
// the current time if nothing ran).
func (e *Engine) Run(until Time) Time {
	stopped := e.run(until)
	if e.now < until && !stopped {
		// Advance the clock to the horizon even when later events remain
		// queued: Run(until) means "simulate up to until", so callers
		// measuring elapsed time get the full window regardless of when
		// the last event before the horizon happened to fire. (This also
		// keeps Now() independent of read-only instrumentation events —
		// the telemetry determinism guarantee.)
		e.now = until
	}
	return e.now
}

// RunAll executes events until the queue drains or Stop is called, and
// returns the time of the last executed event. Unlike Run, it does not
// advance the clock past the last event.
func (e *Engine) RunAll() Time {
	const forever = Time(1<<62 - 1)
	e.run(forever)
	return e.now
}

//prestolint:noalloc
func (e *Engine) run(until Time) (stopped bool) {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	if e.sh != nil && !e.sh.solo {
		panic("sim: Run on a shard-owned engine; drive it through ShardGroup.Run")
	}
	e.running = true
	// The stop flag is consumed on exit, whether it was raised mid-run
	// or before the run started (a pre-run Stop makes this run a no-op).
	//prestolint:allow hotalloc -- receiver-only capture in an open-coded defer; the compiler keeps it off the heap (bench-gated 0 allocs/op)
	defer func() { e.running = false; e.stopped.Store(false) }()

	for !e.stopped.Load() {
		h, inLane := e.head()
		if h == nil || h.at > until {
			break
		}
		e.fire(h, inLane)
	}
	return e.stopped.Load()
}

// runWindow executes queued events with at strictly below limit. It is
// the per-shard inner loop of a ShardGroup window: the coordinator has
// already proven (via the lookahead bound) that no other shard can
// inject an event below limit, so everything under it is safe to fire.
// Unlike run, it never consumes the stop flag — a Stop raised by a
// callback is observed by the coordinator at the window barrier, so
// the whole group stops on a window boundary and the executed-event
// prefix stays identical to a serial run.
func (e *Engine) runWindow(limit Time) {
	for {
		h, inLane := e.head()
		if h == nil || h.at >= limit {
			break
		}
		at, sq := h.at, h.seq
		k0 := e.sh.k
		e.fire(h, inLane)
		if e.sh.k > k0 {
			// Journal only events that scheduled something: the barrier
			// merge replays schedule calls, not executions.
			e.sh.execLog = append(e.sh.execLog, execRec{at: at, seq: sq, nCalls: e.sh.k - k0})
		}
	}
}

// head returns the entry of the earliest queued event — a lane-heap
// entry naming its lane when inLane, an event-heap entry otherwise —
// or nil when nothing is queued.
//
//prestolint:noalloc
func (e *Engine) head() (h *qent, inLane bool) {
	if e.laneN > 0 && (len(e.heap) == 0 || e.laneHeap[0].before(&e.heap[0])) {
		return &e.laneHeap[0], true
	}
	if len(e.heap) > 0 {
		return &e.heap[0], false
	}
	return nil, false
}

// fire dequeues the event head returned, advances the clock to it, and
// runs it. The slot is released before dispatch: the firing event's ID
// is dead from inside its own callback, and the slot may be reused
// there.
//
//prestolint:noalloc
func (e *Engine) fire(h *qent, inLane bool) {
	e.now = h.at
	var i int32
	if li := h.idx; inLane {
		i = e.lanes[li].q.Pop()
		e.laneSettle(li)
	} else {
		i = h.idx
		e.heapPopMin()
	}
	fn := e.arena[i].fn
	e.release(i)
	e.live--
	e.Executed++
	fn()
}

// peekAt returns the timestamp of the earliest queued event.
func (e *Engine) peekAt() (Time, bool) {
	h, _ := e.head()
	if h == nil {
		return 0, false
	}
	return h.at, true
}

// rekey rewrites a queued event's sequence number from its provisional
// window-local value to the true global one resolved at the barrier.
// Rekeying never reorders the heaps or a lane: within one window a
// shard's provisional order equals its true relative order, and every
// true seq assigned at the barrier exceeds every seq issued before the
// window — so all comparator outcomes are preserved and the key can be
// overwritten in place (in the slot and in the heap entry that carries
// it inline). A dead ID (fired, canceled or tombstoned inside the
// window) is a no-op, exactly like Cancel.
func (e *Engine) rekey(id EventID, seq uint64) {
	if id.slot < 0 || int(id.slot) >= len(e.arena) {
		return
	}
	s := &e.arena[id.slot]
	if s.gen != id.gen {
		return
	}
	s.seq = seq
	switch {
	case s.pos >= 0:
		e.heap[s.pos].seq = seq
	case s.pos == posLane && e.lanes[s.next].q.Front() == id.slot:
		e.laneHeap[e.lanes[s.next].hpos].seq = seq
	}
}

// insertKeyed enqueues an event with an explicit (at, seq) key — the
// barrier's path for landing a cross-shard handoff with the global
// sequence number it was assigned in the merge. It always uses the
// heap: handoffs arrive in merge order, not in lane order.
func (e *Engine) insertKeyed(at Time, seq uint64, fn func()) {
	i := e.alloc()
	s := &e.arena[i]
	s.at, s.seq, s.fn = at, seq, fn
	e.heapPush(i)
	e.noteQueued()
}

// ---- delay lanes ----

// lanePush files slot i in the lane for delay d and reports whether it
// did. The lane takes the event when it is empty (claiming the lane
// for d) or already holds d and its tail sorts before the event.
//
//prestolint:noalloc
func (e *Engine) lanePush(i int32, d Time) bool {
	li := laneFor(d)
	l := &e.lanes[li]
	s := &e.arena[i]
	if l.q.Len() == 0 {
		l.delay = d
		l.hpos = int32(e.laneN)
		e.laneHeap[e.laneN] = qent{at: s.at, seq: s.seq, idx: li}
		e.laneN++
		e.laneSiftUp(int(l.hpos))
	} else {
		tail := &e.arena[l.q.Back()]
		if l.delay != d || s.at < tail.at || (s.at == tail.at && s.seq < tail.seq) {
			return false
		}
	}
	l.q.Push(i)
	s.pos, s.next = posLane, li
	return true
}

// laneSettle restores lane li after its head left (fired or was
// tombstoned): it frees the tombstones now at the front, then re-keys
// the lane in the lane heap by its new head, or removes it there when
// the lane drained.
//
//prestolint:noalloc
func (e *Engine) laneSettle(li int32) {
	l := &e.lanes[li]
	for l.q.Len() > 0 && e.arena[l.q.Front()].pos == posTomb {
		e.release(l.q.Pop())
	}
	if l.q.Len() == 0 {
		e.laneHeapRemove(int(l.hpos))
		return
	}
	s := &e.arena[l.q.Front()]
	h := &e.laneHeap[l.hpos]
	h.at, h.seq = s.at, s.seq
	// A lane's head only moves later, so the entry can only sink.
	e.laneSiftDown(int(l.hpos))
}

// ---- binary min-heap over lane heads ----

//prestolint:noalloc
func (e *Engine) laneHeapRemove(i int) {
	e.laneN--
	n := e.laneN
	if i < n {
		last := e.laneHeap[n]
		e.laneHeap[i] = last
		e.laneSiftDown(i)
		if e.lanes[last.idx].hpos == int32(i) {
			e.laneSiftUp(i)
		}
	}
}

//prestolint:noalloc
func (e *Engine) laneSiftUp(i int) {
	h := &e.laneHeap
	moved := h[i]
	for i > 0 {
		p := (i - 1) >> 1
		if h[p].before(&moved) {
			break
		}
		h[i] = h[p]
		e.lanes[h[i].idx].hpos = int32(i)
		i = p
	}
	h[i] = moved
	e.lanes[moved.idx].hpos = int32(i)
}

//prestolint:noalloc
func (e *Engine) laneSiftDown(i int) {
	h := &e.laneHeap
	n := e.laneN
	moved := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&moved) {
			break
		}
		h[i] = h[c]
		e.lanes[h[i].idx].hpos = int32(i)
		i = c
	}
	h[i] = moved
	e.lanes[moved.idx].hpos = int32(i)
}

// ---- 4-ary min-heap over events outside the lanes ----
//
// A 4-ary layout halves the tree depth of a binary heap, and the hole-
// based sift loops below write each moved element exactly once. Order
// is (at, seq) ascending — seq is the FIFO tie-break.

// heapPush inserts slot i, sifting it up from the bottom.
//
//prestolint:noalloc
func (e *Engine) heapPush(i int32) {
	s := &e.arena[i]
	//prestolint:allow hotalloc -- heap high-water growth is amortized; the backing array is reused once at steady size
	e.heap = append(e.heap, qent{at: s.at, seq: s.seq, idx: i})
	e.siftUp(len(e.heap) - 1)
}

// heapPopMin removes the root (the earliest event). The caller has
// already read its entry.
//
//prestolint:noalloc
func (e *Engine) heapPopMin() {
	h := e.heap
	n := len(h) - 1
	top := h[0].idx
	e.heap = h[:n]
	if n > 0 {
		e.heap[0] = h[n]
		e.siftDown(0)
	}
	e.arena[top].pos = posIdle
}

// heapRemove deletes the element at heap position pos (Cancel's path).
//
//prestolint:noalloc
func (e *Engine) heapRemove(pos int32) {
	h := e.heap
	n := len(h) - 1
	i := int(pos)
	removed := h[i].idx
	last := h[n]
	e.heap = h[:n]
	if i < n {
		e.heap[i] = last
		e.siftDown(i)
		if e.arena[last.idx].pos == pos {
			// Didn't move down; it may need to move up instead.
			e.siftUp(i)
		}
	}
	e.arena[removed].pos = posIdle
}

// siftUp restores heap order by floating the element at index i toward
// the root.
//
//prestolint:noalloc
func (e *Engine) siftUp(i int) {
	h := e.heap
	moved := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].before(&moved) {
			break
		}
		h[i] = h[p]
		e.arena[h[i].idx].pos = int32(i)
		i = p
	}
	h[i] = moved
	e.arena[moved.idx].pos = int32(i)
}

// siftDown restores heap order by sinking the element at index i.
//
//prestolint:noalloc
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	moved := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[best]) {
				best = j
			}
		}
		if !h[best].before(&moved) {
			break
		}
		h[i] = h[best]
		e.arena[h[i].idx].pos = int32(i)
		i = best
	}
	h[i] = moved
	e.arena[moved.idx].pos = int32(i)
}

// Timer is a restartable one-shot timer bound to an Engine, analogous to
// time.Timer but in simulated time. The zero value is unusable; create
// with NewTimer.
type Timer struct {
	e  *Engine
	id EventID
	fn func()
	// fireFn is t.fire bound once at construction, so Reset does not
	// allocate a fresh method-value closure on every rearm.
	fireFn func()
}

// NewTimer returns a stopped timer that will invoke fn when it fires.
func NewTimer(e *Engine, fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil fn")
	}
	t := &Timer{e: e, fn: fn}
	t.fireFn = t.fire
	return t
}

// Reset (re)arms the timer to fire after delay, canceling any pending
// expiration. A negative delay is treated as zero. Timers always use
// the heap: they are rearmed far more often than they fire, and a heap
// cancel frees the slot at once where a lane cancel would leave a
// tombstone.
func (t *Timer) Reset(delay Time) {
	t.e.Cancel(t.id)
	t.id = t.e.push(t.e.now+delay, t.fireFn, false)
}

// Stop disarms the timer. It reports whether a pending expiration was
// canceled.
func (t *Timer) Stop() bool {
	ok := t.e.Cancel(t.id)
	t.id = EventID{}
	return ok
}

// Armed reports whether the timer has a pending expiration. It routes
// through the engine's generation check, so a fired-then-reused event
// slot is never misreported as armed.
func (t *Timer) Armed() bool {
	return t.e.Armed(t.id)
}

func (t *Timer) fire() {
	t.id = EventID{}
	t.fn()
}
