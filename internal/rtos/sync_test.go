package rtos

import (
	"testing"
)

func TestMutexExclusionAndFIFO(t *testing.T) {
	k := NewKernel(testCfg())
	mu := k.NewMutex("m")
	var order []string
	inCritical := 0
	worker := func(name string) func(*ThreadCtx) {
		return func(c *ThreadCtx) {
			mu.Lock(c)
			inCritical++
			if inCritical != 1 {
				t.Errorf("%s: %d threads in critical section", name, inCritical)
			}
			c.Charge(300)
			inCritical--
			order = append(order, name)
			mu.Unlock(c)
			c.Exit()
		}
	}
	// Same priority: the first to run grabs the lock; others queue FIFO.
	k.CreateThread("w1", 10, worker("w1"))
	k.CreateThread("w2", 10, worker("w2"))
	k.CreateThread("w3", 10, worker("w3"))
	k.Advance(10000)
	if len(order) != 3 {
		t.Fatalf("completions %v", order)
	}
	if mu.Owner() != nil {
		t.Fatal("mutex still owned at end")
	}
}

func TestMutexTryLock(t *testing.T) {
	k := NewKernel(testCfg())
	mu := k.NewMutex("m")
	var got []bool
	// Equal priorities so the 5-tick timeslice interleaves them: a locks
	// and burns its slice; b then observes the held lock; once a's next
	// slice releases it, b's second TryLock succeeds.
	k.CreateThread("a", 5, func(c *ThreadCtx) {
		mu.Lock(c)
		c.Charge(500)
		mu.Unlock(c)
		c.Exit()
	})
	k.CreateThread("b", 5, func(c *ThreadCtx) {
		c.Charge(100) // a holds the lock now
		got = append(got, mu.TryLock(c))
		c.Charge(1000) // a released by now
		got = append(got, mu.TryLock(c))
		mu.Unlock(c)
		c.Exit()
	})
	k.Advance(10000)
	if len(got) != 2 || got[0] || !got[1] {
		t.Fatalf("TryLock results %v, want [false true]", got)
	}
}

func TestMutexErrors(t *testing.T) {
	k := NewKernel(testCfg())
	mu := k.NewMutex("m")
	var recovered []string
	k.CreateThread("bad", 5, func(c *ThreadCtx) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					recovered = append(recovered, "unlock-unowned")
				}
			}()
			mu.Unlock(c)
		}()
		mu.Lock(c)
		func() {
			defer func() {
				if r := recover(); r != nil {
					recovered = append(recovered, "recursive")
				}
			}()
			mu.Lock(c)
		}()
		mu.Unlock(c)
		c.Exit()
	})
	k.Advance(1000)
	if len(recovered) != 2 {
		t.Fatalf("recovered %v, want both error panics", recovered)
	}
}

func TestSemaphoreCounting(t *testing.T) {
	k := NewKernel(testCfg())
	sem := k.NewSemaphore("s", 2)
	acquired := 0
	k.CreateThread("c", 5, func(c *ThreadCtx) {
		sem.Wait(c)
		acquired++
		sem.Wait(c)
		acquired++
		sem.Wait(c) // blocks: count exhausted
		acquired++
		c.Exit()
	})
	k.Advance(500)
	if acquired != 2 {
		t.Fatalf("acquired %d with initial count 2, want 2", acquired)
	}
	sem.Post()
	k.Advance(500)
	if acquired != 3 {
		t.Fatalf("acquired %d after post, want 3", acquired)
	}
	if !sem.TryWait() == true && sem.Count() != 0 {
		t.Fatal("count bookkeeping wrong")
	}
}

func TestSemaphoreWakesHighestPriorityEventually(t *testing.T) {
	k := NewKernel(testCfg())
	sem := k.NewSemaphore("s", 0)
	var order []string
	mk := func(name string, prio int) {
		k.CreateThread(name, prio, func(c *ThreadCtx) {
			sem.Wait(c)
			order = append(order, name)
			c.Exit()
		})
	}
	mk("first", 10)
	mk("second", 10)
	k.Advance(200) // both blocked now
	sem.Post()
	sem.Post()
	k.Advance(500)
	// FIFO wake order.
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("wake order %v", order)
	}
}

func TestMailboxProducerConsumer(t *testing.T) {
	k := NewKernel(testCfg())
	mb := k.NewMailbox("mb", 4)
	var got []uint32
	k.CreateThread("producer", 8, func(c *ThreadCtx) {
		for i := uint32(0); i < 10; i++ {
			c.Charge(50)
			mb.Put(c, []uint32{i})
		}
		c.Exit()
	})
	k.CreateThread("consumer", 9, func(c *ThreadCtx) {
		for i := 0; i < 10; i++ {
			msg := mb.Get(c)
			c.Charge(20)
			got = append(got, msg[0])
		}
		c.Exit()
	})
	k.Advance(100000)
	if len(got) != 10 {
		t.Fatalf("consumed %d messages: %v", len(got), got)
	}
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestMailboxBackpressure(t *testing.T) {
	k := NewKernel(testCfg())
	mb := k.NewMailbox("mb", 2)
	puts := 0
	k.CreateThread("producer", 5, func(c *ThreadCtx) {
		for i := uint32(0); i < 5; i++ {
			mb.Put(c, []uint32{i})
			puts++
		}
		c.Exit()
	})
	k.Advance(1000)
	// Nothing consumes: producer must be stuck after filling capacity 2
	// (it blocks inside the 3rd Put, so puts==2).
	if puts != 2 {
		t.Fatalf("producer completed %d puts with capacity 2 and no consumer", puts)
	}
	if mb.Len() != 2 {
		t.Fatalf("mailbox holds %d", mb.Len())
	}
	k.Shutdown()
}

func TestMailboxTryPutDropsWhenFull(t *testing.T) {
	k := NewKernel(testCfg())
	mb := k.NewMailbox("mb", 2)
	if !mb.TryPut([]uint32{1}) || !mb.TryPut([]uint32{2}) {
		t.Fatal("TryPut failed below capacity")
	}
	if mb.TryPut([]uint32{3}) {
		t.Fatal("TryPut succeeded beyond capacity")
	}
	if mb.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", mb.Dropped())
	}
	if m, ok := mb.TryGet(); !ok || m[0] != 1 {
		t.Fatalf("TryGet = %v %v", m, ok)
	}
}

func TestMailboxGetTimeout(t *testing.T) {
	k := NewKernel(testCfg())
	mb := k.NewMailbox("mb", 2)
	var gotOK, gotTimeout bool
	var timeoutTick uint64
	k.CreateThread("c", 5, func(c *ThreadCtx) {
		_, ok := mb.GetTimeout(c, 5)
		gotTimeout = !ok
		timeoutTick = k.SWTick()
		msg, ok := mb.GetTimeout(c, 100)
		gotOK = ok && msg[0] == 42
		c.Exit()
	})
	k.AlarmAfter(10, func() { mb.TryPut([]uint32{42}) })
	k.Advance(100 * 100)
	if !gotTimeout {
		t.Fatal("first GetTimeout did not time out")
	}
	if timeoutTick != 5 {
		t.Fatalf("timeout at tick %d, want 5", timeoutTick)
	}
	if !gotOK {
		t.Fatal("second GetTimeout missed the message")
	}
}

func TestMailboxZeroCapacityPanics(t *testing.T) {
	k := NewKernel(testCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity mailbox accepted")
		}
	}()
	k.NewMailbox("bad", 0)
}

func TestDriverRegistry(t *testing.T) {
	k := NewKernel(testCfg())
	d := &stubDriver{name: "/dev/null0"}
	if err := k.RegisterDriver(d); err != nil {
		t.Fatal(err)
	}
	if !d.inited {
		t.Fatal("Init not called at registration")
	}
	if err := k.RegisterDriver(&stubDriver{name: "/dev/null0"}); err == nil {
		t.Fatal("duplicate driver name accepted")
	}
	got, err := k.Lookup("/dev/null0")
	if err != nil || got != d {
		t.Fatalf("Lookup: %v %v", got, err)
	}
	if _, err := k.Lookup("/dev/missing"); err == nil {
		t.Fatal("Lookup of missing driver succeeded")
	}
	if k.Drivers() != 1 {
		t.Fatalf("driver count %d", k.Drivers())
	}
	k.Advance(10)
	if err := k.RegisterDriver(&stubDriver{name: "/dev/late"}); err == nil {
		t.Fatal("registration after boot accepted")
	}
}

type stubDriver struct {
	name   string
	inited bool
}

func (d *stubDriver) Name() string         { return d.name }
func (d *stubDriver) Init(k *Kernel) error { d.inited = true; return nil }
func (d *stubDriver) Read(c *ThreadCtx, off uint32, buf []uint32) (int, error) {
	return len(buf), nil
}
func (d *stubDriver) Write(c *ThreadCtx, off uint32, buf []uint32) (int, error) {
	return len(buf), nil
}

// TestMailboxGetTimeoutAfterEarlyMessage: a timed Get that a message
// ends early must take its alarm with it. The next timed Get, on the same
// mailbox with nobody posting, must time out n ticks after it was called
// instead of being woken by the first call's alarm and re-armed forever.
func TestMailboxGetTimeoutAfterEarlyMessage(t *testing.T) {
	k := NewKernel(testCfg())
	mb := k.NewMailbox("mb", 2)
	var first, second, returned bool
	var called, done uint64
	k.CreateThread("c", 5, func(c *ThreadCtx) {
		_, first = mb.GetTimeout(c, 10)
		called = k.SWTick()
		_, second = mb.GetTimeout(c, 10)
		done, returned = k.SWTick(), true
		c.Exit()
	})
	k.AlarmAfter(2, func() { mb.TryPut([]uint32{42}) })
	k.Advance(5000 * 100)
	if !first || called != 2 {
		t.Fatalf("first GetTimeout: ok=%v at tick %d, want the message at tick 2", first, called)
	}
	if !returned {
		t.Fatal("second GetTimeout never returned within 5000 ticks")
	}
	if second || done != called+10 {
		t.Fatalf("second GetTimeout: ok=%v at tick %d, want a timeout at tick %d", second, done, called+10)
	}
}
