package rtos

import "fmt"

// Mutex is a blocking mutual-exclusion lock with FIFO handoff and
// optional priority inheritance (eCos's cyg_mutex with the inheritance
// protocol): while a higher-priority thread waits, the owner is boosted
// to the highest waiting priority, so a medium-priority thread cannot
// starve the critical section — the classic Mars-Pathfinder scenario.
type Mutex struct {
	k       *Kernel
	name    string
	owner   *Thread
	wq      waitQueue
	inherit bool
	basePri int // owner's original priority while boosted
	boosted bool
}

// NewMutex creates a mutex without priority inheritance.
func (k *Kernel) NewMutex(name string) *Mutex { return &Mutex{k: k, name: name} }

// NewMutexPI creates a mutex with the priority-inheritance protocol.
func (k *Kernel) NewMutexPI(name string) *Mutex {
	return &Mutex{k: k, name: name, inherit: true}
}

// Lock acquires the mutex, blocking while another thread holds it.
func (m *Mutex) Lock(c *ThreadCtx) {
	for m.owner != nil && m.owner != c.t {
		if m.inherit && c.t.prio < m.owner.prio {
			if !m.boosted {
				m.boosted = true
				m.basePri = m.owner.prio
			}
			m.k.SetPriority(m.owner, c.t.prio)
		}
		c.block(&m.wq)
	}
	if m.owner == c.t {
		panic(fmt.Sprintf("rtos: mutex %q: recursive lock by %q", m.name, c.t.name))
	}
	m.owner = c.t
}

// Unlock releases the mutex, restores an inherited priority, and readies
// the oldest waiter.
func (m *Mutex) Unlock(c *ThreadCtx) {
	if m.owner != c.t {
		panic(fmt.Sprintf("rtos: mutex %q: unlock by non-owner %q", m.name, c.t.name))
	}
	if m.boosted {
		m.boosted = false
		m.k.SetPriority(c.t, m.basePri)
	}
	m.owner = nil
	m.wq.wakeOne(m.k)
	if m.inherit {
		// The releasing thread may have been deprioritized below a woken
		// waiter; force a scheduling decision at the next safe point.
		m.k.needResched = true
	}
}

// TryLock acquires the mutex without blocking; reports success.
func (m *Mutex) TryLock(c *ThreadCtx) bool {
	if m.owner != nil {
		return false
	}
	m.owner = c.t
	return true
}

// Owner returns the current holder (nil if free).
func (m *Mutex) Owner() *Thread { return m.owner }

// Semaphore is a counting semaphore.
type Semaphore struct {
	k     *Kernel
	name  string
	count int
	wq    waitQueue
}

// NewSemaphore creates a semaphore with an initial count.
func (k *Kernel) NewSemaphore(name string, initial int) *Semaphore {
	return &Semaphore{k: k, name: name, count: initial}
}

// Wait decrements the count, blocking while it is zero.
func (s *Semaphore) Wait(c *ThreadCtx) {
	for s.count == 0 {
		c.block(&s.wq)
	}
	s.count--
}

// TryWait decrements without blocking; reports success.
func (s *Semaphore) TryWait() bool {
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

// Post increments the count and readies one waiter. Post is safe from DSR
// context (it never blocks), which is how device drivers signal their
// service threads.
func (s *Semaphore) Post() {
	s.count++
	s.wq.wakeOne(s.k)
}

// Count returns the current count.
func (s *Semaphore) Count() int { return s.count }

// Mailbox is a bounded FIFO of word payloads, the eCos cyg_mbox
// equivalent used by drivers to hand data to application threads.
type Mailbox struct {
	k        *Kernel
	name     string
	cap      int
	q        [][]uint32
	notEmpty waitQueue
	notFull  waitQueue
	dropped  uint64
}

// NewMailbox creates a mailbox holding at most capacity messages.
func (k *Kernel) NewMailbox(name string, capacity int) *Mailbox {
	if capacity < 1 {
		panic(fmt.Sprintf("rtos: mailbox %q: capacity must be ≥ 1", name))
	}
	return &Mailbox{k: k, name: name, cap: capacity}
}

// Put delivers msg, blocking while the mailbox is full.
func (mb *Mailbox) Put(c *ThreadCtx, msg []uint32) {
	for len(mb.q) >= mb.cap {
		c.block(&mb.notFull)
	}
	mb.q = append(mb.q, msg)
	mb.notEmpty.wakeOne(mb.k)
}

// TryPut delivers msg without blocking; reports success. Safe from DSR
// context.
func (mb *Mailbox) TryPut(msg []uint32) bool {
	if len(mb.q) >= mb.cap {
		mb.dropped++
		return false
	}
	mb.q = append(mb.q, msg)
	mb.notEmpty.wakeOne(mb.k)
	return true
}

// Get removes the oldest message, blocking while the mailbox is empty.
func (mb *Mailbox) Get(c *ThreadCtx) []uint32 {
	for len(mb.q) == 0 {
		c.block(&mb.notEmpty)
	}
	msg := mb.q[0]
	mb.q = mb.q[1:]
	mb.notFull.wakeOne(mb.k)
	return msg
}

// GetTimeout is Get with a bound of n SW ticks from the call; ok is false
// on timeout.
func (mb *Mailbox) GetTimeout(c *ThreadCtx, n uint64) ([]uint32, bool) {
	deadline := mb.k.swTick + n
	for len(mb.q) == 0 {
		if !c.blockTimeout(&mb.notEmpty, deadline) {
			return nil, false
		}
	}
	msg := mb.q[0]
	mb.q = mb.q[1:]
	mb.notFull.wakeOne(mb.k)
	return msg, true
}

// TryGet removes the oldest message without blocking.
func (mb *Mailbox) TryGet() ([]uint32, bool) {
	if len(mb.q) == 0 {
		return nil, false
	}
	msg := mb.q[0]
	mb.q = mb.q[1:]
	mb.notFull.wakeOne(mb.k)
	return msg, true
}

// Len returns the number of queued messages.
func (mb *Mailbox) Len() int { return len(mb.q) }

// Dropped returns how many TryPut deliveries were refused because the
// mailbox was full.
func (mb *Mailbox) Dropped() uint64 { return mb.dropped }
