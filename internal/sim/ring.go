package sim

// Ring is a growable FIFO queue over a power-of-two circular buffer.
// Push appends at the back and Pop removes from the front, both in
// O(1); once the buffer has reached its high-water size neither
// allocates. Popped cells are zeroed so the ring never pins dead
// values. The zero Ring is empty and ready to use.
//
// The engine keeps one per delay lane, and fabric pipes keep their
// waiting and propagating packets in them.
type Ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the front element
	n    int // number of elements
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the back, doubling the buffer when it is full.
//
//prestolint:noalloc
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		//prestolint:allow hotalloc -- ring high-water growth is amortized; steady state reuses the buffer (bench-gated 0 allocs/op)
		buf := make([]T, max(8, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the front element. The ring must not be
// empty.
//
//prestolint:noalloc
func (r *Ring[T]) Pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Front returns the front element without removing it. The ring must
// not be empty.
func (r *Ring[T]) Front() T { return r.buf[r.head] }

// Back returns the most recently pushed element. The ring must not be
// empty.
func (r *Ring[T]) Back() T { return r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

// Clear drops every element, keeping the buffer for reuse.
func (r *Ring[T]) Clear() {
	clear(r.buf)
	r.head, r.n = 0, 0
}
