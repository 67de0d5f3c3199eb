package cosim

import (
	"cmp"
	"sync"
	"time"
)

// queueMinSlots is the storage a queue allocates on its first push.
const queueMinSlots = 8

// msgQueue is the bounded FIFO behind every transport's per-channel
// inbox. Its ring storage is allocated on the first push and doubles on
// demand up to the bound, never past it, so a link pays for the traffic
// it carries instead of for its worst case. A push on a full queue blocks
// until a pop or close. After close, pushes fail with ErrClosed and pops
// drain what is queued before reporting the owner's terminal error.
type msgQueue struct {
	mu       sync.Mutex
	buf      []Msg // ring storage, grown by doubling up to bound
	head, n  int   // oldest message and message count
	bound    int
	closed   bool
	err      error // what a pop of the closed, drained queue reports
	popWait  int   // goroutines blocked in pop
	pushWait int   // goroutines blocked in push

	// popReady and pushReady (capacity 1) wake one blocked popper or
	// pusher; done is closed by close and wakes them all.
	popReady, pushReady chan struct{}
	done                chan struct{}
}

func newMsgQueue(bound int) *msgQueue {
	return &msgQueue{
		bound:     max(bound, 1),
		popReady:  make(chan struct{}, 1),
		pushReady: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
}

// wake leaves a wake-up token on c unless one is already there.
func wake(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// push appends m, blocking while the queue is full. It returns ErrClosed,
// without taking m, once the queue is closed.
func (q *msgQueue) push(m Msg) error {
	q.mu.Lock()
	for q.n == q.bound && !q.closed {
		q.pushWait++
		q.mu.Unlock()
		select {
		case <-q.pushReady:
		case <-q.done:
		}
		q.mu.Lock()
		q.pushWait--
	}
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = m
	q.n++
	if q.popWait > 0 {
		wake(q.popReady)
	}
	if q.n < q.bound && q.pushWait > 0 {
		wake(q.pushReady) // pass the wake-up on to the next pusher
	}
	q.mu.Unlock()
	return nil
}

// grow doubles the ring's storage, capped at the bound, keeping FIFO
// order (mu held, queue full).
func (q *msgQueue) grow() {
	buf := make([]Msg, min(max(2*len(q.buf), queueMinSlots), q.bound))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// take removes the oldest message (mu held, n > 0).
func (q *msgQueue) take() Msg {
	m := q.buf[q.head]
	q.buf[q.head] = Msg{} // drop the payload references
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	if q.pushWait > 0 {
		wake(q.pushReady)
	}
	if q.n > 0 && q.popWait > 0 {
		wake(q.popReady) // pass the wake-up on to the next popper
	}
	return m
}

// pop removes the oldest message, blocking while the queue is empty and
// open. It fails with the close error once the queue is closed and
// drained, and with ErrTimeout when timeout fires first (a nil timeout
// never does).
func (q *msgQueue) pop(timeout <-chan time.Time) (Msg, error) {
	q.mu.Lock()
	for q.n == 0 {
		if q.closed {
			q.mu.Unlock()
			return Msg{}, q.err
		}
		q.popWait++
		q.mu.Unlock()
		var timedOut bool
		select {
		case <-q.popReady:
		case <-q.done:
		case <-timeout:
			timedOut = true
		}
		q.mu.Lock()
		q.popWait--
		if timedOut && q.n == 0 {
			q.mu.Unlock()
			return Msg{}, ErrTimeout
		}
	}
	m := q.take()
	q.mu.Unlock()
	return m, nil
}

// tryPop removes the oldest message if there is one. An empty queue
// reports false, with the close error once it is closed.
func (q *msgQueue) tryPop() (Msg, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n > 0 {
		return q.take(), true, nil
	}
	if q.closed {
		return Msg{}, false, q.err
	}
	return Msg{}, false, nil
}

// close fails later pushes and wakes every blocked push and pop. What is
// queued stays poppable; then pops report err (ErrClosed when nil). Only
// the first close has effect.
func (q *msgQueue) close(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		q.err = cmp.Or(err, ErrClosed)
		close(q.done)
	}
}
