package rtos

import "testing"

func TestCondProducerConsumer(t *testing.T) {
	k := NewKernel(testCfg())
	mu := k.NewMutex("m")
	cv := k.NewCond("cv", mu)
	var queue []uint32
	var got []uint32
	k.CreateThread("consumer", 8, func(c *ThreadCtx) {
		for len(got) < 5 {
			mu.Lock(c)
			for len(queue) == 0 {
				cv.Wait(c)
			}
			got = append(got, queue[0])
			queue = queue[1:]
			mu.Unlock(c)
		}
		c.Exit()
	})
	k.CreateThread("producer", 9, func(c *ThreadCtx) {
		for i := uint32(0); i < 5; i++ {
			c.Charge(200)
			mu.Lock(c)
			queue = append(queue, i)
			cv.Signal()
			mu.Unlock(c)
		}
		c.Exit()
	})
	k.Advance(100000)
	if len(got) != 5 {
		t.Fatalf("consumed %v", got)
	}
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	k := NewKernel(testCfg())
	mu := k.NewMutex("m")
	cv := k.NewCond("cv", mu)
	ready := false
	woken := 0
	for i := 0; i < 4; i++ {
		k.CreateThread("w", 10, func(c *ThreadCtx) {
			mu.Lock(c)
			for !ready {
				cv.Wait(c)
			}
			woken++
			mu.Unlock(c)
			c.Exit()
		})
	}
	k.CreateThread("kick", 5, func(c *ThreadCtx) {
		c.Sleep(20) // let the waiters park first
		mu.Lock(c)
		ready = true
		cv.Broadcast()
		mu.Unlock(c)
		c.Exit()
	})
	k.Advance(1500) // 15 ticks: waiters parked, kicker still asleep
	if woken != 0 {
		t.Fatalf("%d woke early", woken)
	}
	k.Advance(100000)
	if woken != 4 {
		t.Fatalf("broadcast woke %d of 4", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := NewKernel(testCfg())
	mu := k.NewMutex("m")
	cv := k.NewCond("cv", mu)
	var timedOut, signalled bool
	k.CreateThread("w", 10, func(c *ThreadCtx) {
		mu.Lock(c)
		timedOut = !cv.WaitTimeout(c, 3)
		// Mutex is held again here either way.
		if mu.Owner() != c.Thread() {
			t.Error("mutex not re-acquired after timeout")
		}
		signalled = cv.WaitTimeout(c, 1000)
		mu.Unlock(c)
		c.Exit()
	})
	k.AlarmAfter(20, func() { cv.Signal() })
	k.Advance(100 * 200)
	if !timedOut {
		t.Fatal("first wait did not time out")
	}
	if !signalled {
		t.Fatal("second wait missed the signal")
	}
}

// TestCondWaitTimeoutAfterEarlySignal: a timed wait that a signal ends
// early must take its alarm with it, so the next timed wait, which
// nobody signals, times out at its own bound rather than waking at the
// first wait's.
func TestCondWaitTimeoutAfterEarlySignal(t *testing.T) {
	k := NewKernel(testCfg())
	mu := k.NewMutex("m")
	cv := k.NewCond("cv", mu)
	var first, second bool
	var called, done uint64
	k.CreateThread("w", 10, func(c *ThreadCtx) {
		mu.Lock(c)
		first = cv.WaitTimeout(c, 10)
		called = k.SWTick()
		second = cv.WaitTimeout(c, 100)
		done = k.SWTick()
		mu.Unlock(c)
		c.Exit()
	})
	k.AlarmAfter(2, func() { cv.Signal() })
	k.Advance(100 * 200)
	if !first || called != 2 {
		t.Fatalf("first wait: signalled=%v at tick %d, want the signal at tick 2", first, called)
	}
	if second || done != called+100 {
		t.Fatalf("second wait: signalled=%v at tick %d, want a timeout at tick %d", second, done, called+100)
	}
}
