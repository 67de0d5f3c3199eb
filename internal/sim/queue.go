package sim

// EventFunc is a callback executed when the simulation reaches the time an
// event was scheduled for.
type EventFunc func()

// scheduledEvent is one pending timed callback. seq breaks ties between
// events scheduled for the same instant so that pop order equals schedule
// order, which keeps simulations deterministic. Events are recycled through
// the queue's freelist once popped; gen distinguishes the current
// incarnation from stale Handles that still point at the same record.
type scheduledEvent struct {
	at   Time
	seq  uint64
	fn   EventFunc
	dead bool   // cancelled in place; skipped on pop
	gen  uint32 // incremented on recycle; stale Handles mismatch
}

// before is the queue's total order: by time, then by schedule sequence.
// seq is unique per queue, so no two events compare equal and every
// correct heap pops the same sequence.
func (a *scheduledEvent) before(b *scheduledEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Handle identifies a scheduled event so it can be cancelled. A Handle
// outliving its event (fired or cancelled, record recycled) is harmless:
// Valid reports false and Cancel is a no-op.
type Handle struct {
	ev  *scheduledEvent
	gen uint32
}

// Valid reports whether the handle refers to a still-pending event. A
// record's generation is bumped the moment it leaves the heap, so a
// matching generation means the event is still queued.
func (h Handle) Valid() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.dead
}

// Queue is a deterministic timed event queue: events pop in non-decreasing
// time order, and events scheduled for the same instant pop in the order
// they were scheduled. Queue is not safe for concurrent use; simulation
// kernels own it from a single goroutine.
type Queue struct {
	h      []*scheduledEvent // binary min-heap under before
	seq    uint64
	popped uint64
	free   []*scheduledEvent // recycled records; bounded by peak outstanding events
}

// get takes an event record from the freelist, allocating only when the
// queue has never been this deep before.
func (q *Queue) get() *scheduledEvent {
	if n := len(q.free); n > 0 {
		ev := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return ev
	}
	return &scheduledEvent{}
}

// recycle returns a popped record to the freelist, bumping its generation
// so outstanding Handles to the old incarnation go stale.
func (q *Queue) recycle(ev *scheduledEvent) {
	ev.gen++
	ev.fn = nil
	ev.dead = false
	q.free = append(q.free, ev)
}

// NewQueue returns an empty event queue.
func NewQueue() *Queue { return &Queue{} }

// Len returns the number of pending (non-cancelled) events. Cancelled
// events that have not been popped yet are excluded.
func (q *Queue) Len() int {
	n := 0
	for _, ev := range q.h {
		if !ev.dead {
			n++
		}
	}
	return n
}

// Empty reports whether no live events remain.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// Schedule registers fn to run at the absolute time at. It returns a handle
// that can cancel the event before it fires.
func (q *Queue) Schedule(at Time, fn EventFunc) Handle {
	ev := q.get()
	ev.at, ev.seq, ev.fn = at, q.seq, fn
	q.seq++
	q.h = append(q.h, ev)
	q.up(len(q.h) - 1)
	return Handle{ev: ev, gen: ev.gen}
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (q *Queue) Cancel(h Handle) bool {
	if !h.Valid() {
		return false
	}
	h.ev.dead = true
	return true
}

// NextTime returns the timestamp of the earliest live event, or MaxTime if
// the queue is empty.
func (q *Queue) NextTime() Time {
	q.skipDead()
	if len(q.h) == 0 {
		return MaxTime
	}
	return q.h[0].at
}

// Pop removes and returns the earliest live event's callback together with
// its timestamp. ok is false when the queue is empty.
func (q *Queue) Pop() (at Time, fn EventFunc, ok bool) {
	q.skipDead()
	if len(q.h) == 0 {
		return 0, nil, false
	}
	at = q.h[0].at
	return at, q.take(), true
}

// PopAt removes and returns the earliest live event's callback only if it
// is scheduled exactly at t. ok is false when the queue is empty or its
// earliest event lies later — the loop condition of a kernel draining one
// simulated instant, without a separate NextTime peek per callback.
func (q *Queue) PopAt(t Time) (fn EventFunc, ok bool) {
	q.skipDead()
	if len(q.h) == 0 || q.h[0].at != t {
		return nil, false
	}
	return q.take(), true
}

// Popped returns the number of events executed so far; exposed for
// simulator statistics.
func (q *Queue) Popped() uint64 { return q.popped }

// take pops the (live) root, recycles its record and returns its callback.
func (q *Queue) take() EventFunc {
	ev := q.popRoot()
	q.popped++
	fn := ev.fn
	q.recycle(ev)
	return fn
}

func (q *Queue) skipDead() {
	for len(q.h) > 0 && q.h[0].dead {
		q.recycle(q.popRoot())
	}
}

// up restores heap order after appending at index i by sifting the new
// event toward the root.
func (q *Queue) up(i int) {
	h := q.h
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// popRoot removes the root and re-sifts the last element down from it.
func (q *Queue) popRoot() *scheduledEvent {
	h := q.h
	n := len(h) - 1
	root, last := h[0], h[n]
	h[n] = nil
	h = h[:n]
	q.h = h
	if n == 0 {
		return root
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return root
}
