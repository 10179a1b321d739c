package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// This file checks the pooled-arena 4-ary heap engine against an
// oracle: a frozen copy of the original container/heap implementation
// the repo seeded with. Both engines are driven through the same
// fuzz-derived script of schedules, cancels, and nested callbacks; any
// divergence in (label, time) firing order is a determinism break.

// ---- oracle: the seed engine, verbatim semantics ----

type oracleEvent struct {
	at       Time
	seq      uint64
	fn       func()
	index    int
	canceled bool
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oracleHeap) Push(x any) {
	ev := x.(*oracleEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

type oracleEngine struct {
	now   Time
	seq   uint64
	queue oracleHeap
}

func (e *oracleEngine) schedule(delay Time, fn func()) *oracleEvent {
	if delay < 0 {
		delay = 0
	}
	t := e.now + delay
	e.seq++
	ev := &oracleEvent{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

func (e *oracleEngine) cancel(ev *oracleEvent) bool {
	if ev == nil || ev.canceled || ev.index < 0 {
		return false
	}
	ev.canceled = true
	heap.Remove(&e.queue, ev.index)
	return true
}

func (e *oracleEngine) runAll() {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*oracleEvent)
		e.now = ev.at
		ev.fn()
	}
}

// ---- shared driver ----

// engineAPI abstracts the two engines so one script drives both.
type engineAPI struct {
	schedule func(delay Time, fn func()) (cancel func() bool)
	// newTimer returns the Reset of a restartable timer running fn.
	newTimer func(fn func()) (reset func(delay Time))
	runAll   func()
	now      func() Time
}

// lockstepDelays is the tie-heavy part of the fuzz delay alphabet: the
// few delays a lockstep fabric repeats (zero, one tick, ACK and MTU
// serialization, host and fabric propagation), so events pile into
// shared delay lanes and fire at shared instants.
var lockstepDelays = [8]Time{0, 1, 67, 500, 1230, 1500, 2000, 1230}

// fuzzDelay maps a script byte to a delay: the lockstep alphabet when
// the high bit is clear, else one of 128 spread delays — more than the
// engine's lane table holds, so lane collisions take the heap.
func fuzzDelay(b byte) Time {
	if b&0x80 == 0 {
		return lockstepDelays[b&7]
	}
	return Time(b&0x7f) * 7
}

// driveScript interprets data as a schedule/cancel/timer script: a
// handful of root events, each callback possibly scheduling a child
// (mostly repeated delays, so same-instant ties are common), canceling
// an earlier event (tombstoning it when it sits in a lane), and
// rearming one of two timers. It returns the (label, time) firing log;
// timer firings log negative labels.
func driveScript(data []byte, api engineAPI) []int64 {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}

	var log []int64
	var cancels []func() bool
	var timers [2]func(Time)
	for i := range timers {
		l := int64(-1 - i)
		timers[i] = api.newTimer(func() { log = append(log, l, int64(api.now())) })
	}
	label := int64(0)
	var mk func() func()
	mk = func() func() {
		l := label
		label++
		return func() {
			log = append(log, l, int64(api.now()))
			op := next()
			if op&1 != 0 && label < 512 {
				cancels = append(cancels, api.schedule(fuzzDelay(next()), mk()))
			}
			if op&2 != 0 && len(cancels) > 0 {
				cancels[int(next())%len(cancels)]()
			}
			if op&4 != 0 {
				timers[op>>7](fuzzDelay(next()))
			}
		}
	}
	roots := int(next())%12 + 2
	for i := 0; i < roots; i++ {
		cancels = append(cancels, api.schedule(fuzzDelay(next()), mk()))
	}
	api.runAll()
	return log
}

func realAPI(e *Engine) engineAPI {
	return engineAPI{
		schedule: func(d Time, fn func()) func() bool {
			id := e.Schedule(d, fn)
			return func() bool { return e.Cancel(id) }
		},
		newTimer: func(fn func()) func(Time) { return NewTimer(e, fn).Reset },
		runAll:   func() { e.RunAll() },
		now:      e.Now,
	}
}

func oracleAPI(e *oracleEngine) engineAPI {
	return engineAPI{
		schedule: func(d Time, fn func()) func() bool {
			ev := e.schedule(d, fn)
			return func() bool { return e.cancel(ev) }
		},
		// A timer over the oracle's own schedule/cancel: Reset cancels
		// the pending expiration and schedules a fresh one.
		newTimer: func(fn func()) func(Time) {
			var ev *oracleEvent
			return func(d Time) {
				e.cancel(ev)
				ev = e.schedule(d, fn)
			}
		},
		runAll: func() { e.runAll() },
		now:    func() Time { return e.now },
	}
}

// ---- sharded engine vs serial engine ----
//
// The second fuzz target drives the same multi-domain script through a
// single serial Engine and through ShardGroups of 1, 2, 4, and 7
// shards. Domains (think: pods) map onto shards round-robin; each
// domain logs (time, rng draw) at every firing, so any divergence in
// event order, tie-breaking, or RNG stream interleave shows up as a
// log or final-state mismatch. Cross-domain sends use delays >= the
// lookahead, exactly the bound the fabric's cross-pod links guarantee.

const (
	shardFuzzDomains   = 8
	shardFuzzLookahead = Time(100)
)

// shardEnv abstracts one run — serial or sharded — over a fixed set of
// domains for driveShardScript. schedule returns a cancel closure only
// for same-domain schedules (cancels must stay shard-local).
type shardEnv struct {
	schedule func(src, dst int, delay Time, fn func()) (cancel func() bool)
	rng      func(d int) *RNG
	now      func(d int) Time
	runAll   func()
}

// driveShardScript interprets data as per-domain schedule/send/cancel
// scripts (bytes dealt round-robin so every domain has its own cursor
// and budget — callbacks touch only state owned by their domain's
// shard, keeping the parallel run race-free by construction). It
// returns the per-domain (time, draw) firing logs.
func driveShardScript(data []byte, env *shardEnv) [][]uint64 {
	const d0 = shardFuzzDomains
	scripts := make([][]byte, d0)
	for i, b := range data {
		scripts[i%d0] = append(scripts[i%d0], b)
	}
	pos := make([]int, d0)
	next := func(d int) byte {
		if pos[d] >= len(scripts[d]) {
			return 0
		}
		b := scripts[d][pos[d]]
		pos[d]++
		return b
	}

	logs := make([][]uint64, d0)
	budget := make([]int, d0)
	cancels := make([][]func() bool, d0)
	for d := range budget {
		budget[d] = 300
	}
	var mk func(d int) func()
	mk = func(d int) func() {
		return func() {
			logs[d] = append(logs[d], uint64(env.now(d)), env.rng(d).Uint64())
			if budget[d] <= 0 {
				return
			}
			op := next(d)
			if op&1 != 0 {
				budget[d]--
				if c := env.schedule(d, d, Time(next(d)&63), mk(d)); c != nil {
					cancels[d] = append(cancels[d], c)
				}
			}
			if op&2 != 0 {
				budget[d]--
				dst := int(next(d)) % d0
				env.schedule(d, dst, shardFuzzLookahead+Time(next(d)&63), mk(dst))
			}
			if op&4 != 0 && len(cancels[d]) > 0 {
				cancels[d][int(next(d))%len(cancels[d])]()
			}
		}
	}
	// Root events are seeded in the sequential phase, in the same order
	// for every engine shape.
	for d := 0; d < d0; d++ {
		n := int(next(d))%3 + 1
		for i := 0; i < n; i++ {
			env.schedule(d, d, Time(next(d)&31), mk(d))
		}
	}
	env.runAll()
	return logs
}

// shardRunResult captures everything the bit-identity claim covers:
// per-domain event logs, the post-run state of every RNG stream, the
// executed-event count, and the final clock.
type shardRunResult struct {
	logs     [][]uint64
	finals   []uint64
	executed uint64
	now      Time
}

// runShardScriptSerial is the reference: one serial Engine, with the
// same per-shard RNG stream derivation a ShardGroup of numShards would
// use (domain d draws from stream d % numShards).
func runShardScriptSerial(data []byte, numShards int, seed uint64) shardRunResult {
	eng := NewEngine()
	root := NewRNG(seed)
	streams := make([]*RNG, numShards)
	for i := range streams {
		streams[i] = root.Fork()
	}
	env := &shardEnv{
		schedule: func(src, dst int, delay Time, fn func()) func() bool {
			id := eng.Schedule(delay, fn)
			if src == dst {
				return func() bool { return eng.Cancel(id) }
			}
			return nil
		},
		rng:    func(d int) *RNG { return streams[d%numShards] },
		now:    func(d int) Time { return eng.Now() },
		runAll: func() { eng.RunAll() },
	}
	logs := driveShardScript(data, env)
	res := shardRunResult{logs: logs, executed: eng.Executed, now: eng.Now()}
	for _, r := range streams {
		res.finals = append(res.finals, r.Uint64())
	}
	return res
}

// runShardScriptGroup runs the same script on a ShardGroup.
func runShardScriptGroup(data []byte, numShards int, seed uint64) shardRunResult {
	g := NewShardGroup(numShards, shardFuzzLookahead, seed)
	shardOf := func(d int) int { return d % numShards }
	env := &shardEnv{
		schedule: func(src, dst int, delay Time, fn func()) func() bool {
			se, de := shardOf(src), shardOf(dst)
			if se != de {
				g.Send(g.Shard(se), de, delay, fn)
				return nil
			}
			id := g.Shard(de).Schedule(delay, fn)
			if src == dst {
				return func() bool { return g.Shard(de).Cancel(id) }
			}
			return nil
		},
		rng:    func(d int) *RNG { return g.RNG(shardOf(d)) },
		now:    func(d int) Time { return g.Shard(shardOf(d)).Now() },
		runAll: func() { g.RunAll() },
	}
	logs := driveShardScript(data, env)
	res := shardRunResult{logs: logs, executed: g.Executed(), now: g.Now()}
	for i := 0; i < numShards; i++ {
		res.finals = append(res.finals, g.RNG(i).Uint64())
	}
	return res
}

// diffShardResults returns a description of the first divergence
// between two runs, or "" when they are bit-identical.
func diffShardResults(want, got shardRunResult) string {
	for d := range want.logs {
		w, g := want.logs[d], got.logs[d]
		if len(w) != len(g) {
			return fmt.Sprintf("domain %d: %d records vs %d", d, len(w)/2, len(g)/2)
		}
		for i := range w {
			if w[i] != g[i] {
				return fmt.Sprintf("domain %d record %d: serial (t=%d draw=%#x) vs sharded (t=%d draw=%#x)",
					d, i/2, w[i&^1], w[i|1], g[i&^1], g[i|1])
			}
		}
	}
	for i := range want.finals {
		if want.finals[i] != got.finals[i] {
			return fmt.Sprintf("stream %d final state diverged", i)
		}
	}
	if want.executed != got.executed {
		return fmt.Sprintf("executed %d events vs %d", want.executed, got.executed)
	}
	if want.now != got.now {
		return fmt.Sprintf("final clock %v vs %v", want.now, got.now)
	}
	return ""
}

// FuzzShardedEngine asserts that a ShardGroup of 1, 2, 4, or 7 shards
// produces byte-identical per-domain event logs, final RNG states,
// executed counts, and final clocks to a serial engine, under random
// schedules with cross-shard sends and cancels from inside callbacks.
func FuzzShardedEngine(f *testing.F) {
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{255, 254, 253, 3, 3, 3, 7, 7, 7, 1, 0, 255, 9, 9, 2, 2, 4, 4, 6, 6})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shards := range []int{1, 2, 4, 7} {
			want := runShardScriptSerial(data, shards, 42)
			got := runShardScriptGroup(data, shards, 42)
			if d := diffShardResults(want, got); d != "" {
				t.Fatalf("%d shards: sharded run diverged from serial: %s", shards, d)
			}
		}
	})
}

// FuzzEngineHeapOrder asserts the lane-and-heap queue pops events in
// exactly the (at, seq) order of the original container/heap engine,
// under interleaved scheduling, cancellation and timer rearming from
// inside callbacks.
func FuzzEngineHeapOrder(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{12, 3, 3, 3, 3, 1, 4, 2, 9, 7, 7, 0, 1, 1, 2, 2})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{9, 4, 4, 4, 4, 4, 4, 4, 4, 4, 7, 4, 3, 1, 135, 4, 7, 4, 0, 2, 5, 4, 7, 4, 9, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		got := driveScript(data, realAPI(NewEngine()))
		want := driveScript(data, oracleAPI(&oracleEngine{}))
		if len(got) != len(want) {
			t.Fatalf("fired %d records, oracle fired %d", len(got)/2, len(want)/2)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("divergence at record %d: engine %v, oracle %v", i/2, got[i:i+2], want[i:i+2])
			}
		}
	})
}
