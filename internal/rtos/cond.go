package rtos

// Cond is a condition variable bound to a Mutex (eCos cyg_cond): Wait
// atomically releases the mutex and blocks; Signal/Broadcast wake
// waiters, which re-acquire the mutex before returning. As always with
// condition variables, waiters must re-check their predicate in a loop.
type Cond struct {
	k    *Kernel
	name string
	mu   *Mutex
	wq   waitQueue
}

// NewCond creates a condition variable using mu as its monitor lock.
func (k *Kernel) NewCond(name string, mu *Mutex) *Cond {
	return &Cond{k: k, name: name, mu: mu}
}

// Wait releases the mutex, blocks until signalled, then re-acquires the
// mutex. The caller must hold the mutex.
func (cv *Cond) Wait(c *ThreadCtx) {
	cv.mu.Unlock(c)
	c.block(&cv.wq)
	cv.mu.Lock(c)
}

// WaitTimeout is Wait bounded by n SW ticks; reports false on timeout.
// The mutex is re-acquired either way.
func (cv *Cond) WaitTimeout(c *ThreadCtx, n uint64) bool {
	cv.mu.Unlock(c)
	ok := c.blockTimeout(&cv.wq, cv.k.swTick+n)
	cv.mu.Lock(c)
	return ok
}

// Signal readies the oldest waiter. Safe from DSR context.
func (cv *Cond) Signal() { cv.wq.wakeOne(cv.k) }

// Broadcast readies every waiter. Safe from DSR context.
func (cv *Cond) Broadcast() { cv.wq.wakeAll(cv.k) }
