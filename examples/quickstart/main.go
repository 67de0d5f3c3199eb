// Quickstart: co-simulate a tiny hardware adder with software on the
// virtual board, in one process: the board is the simulator's granted
// party, stepped directly by the federation's time manager.
//
// The hardware side is an HDL model with the paper's driver ports: a
// driver_in receives two operands from the board, the adder computes for
// two clock cycles, then posts the result to a driver_out register and
// raises an interrupt. The software side is an RTOS thread that writes
// the operands through the remote device driver, sleeps on a semaphore
// until the driver's DSR signals completion, and reads the result from
// the device window.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/board"
	"repro/internal/cosim/federation"
	"repro/internal/hdlsim"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Device register map (word addresses).
const (
	regOpA    = 0x00 // board → adder
	regOpB    = 0x01
	regResult = 0x10 // adder → board
	irqDone   = 1
	winSize   = 0x20
)

func main() {
	// ---- hardware side: the adder model -------------------------------
	s := hdlsim.NewSimulator("quickstart")
	clk := s.NewClock("clk", sim.NS(10))
	din := s.NewDriverIn("adder.ops", regOpA, 2)
	dout := s.NewDriverOut("adder.result", regResult, 1)

	var a, b uint32
	var haveA, haveB bool
	busy := s.NewEvent("adder.start")
	s.DriverProcess("adder.driver", func() {
		for {
			w, ok := din.Pop()
			if !ok {
				return
			}
			switch w.Addr {
			case regOpA:
				a, haveA = w.Val, true
			case regOpB:
				b, haveB = w.Val, true
			}
			if haveA && haveB {
				haveA, haveB = false, false
				busy.Notify()
			}
		}
	}, din)
	s.Thread("adder.compute", func(c *hdlsim.Ctx) {
		for {
			c.Wait(busy)
			c.WaitCycles(clk, 2) // the adder "takes" two cycles
			sum := a + b
			dout.Set(regResult, sum)
			dout.Post(regResult, []uint32{sum})
			s.RaiseDriverInterrupt(irqDone)
			fmt.Printf("[hw   ] %v: computed %d + %d = %d, raising IRQ\n", c.Now(), a, b, sum)
		}
	})

	// ---- board side: RTOS, driver, application ------------------------
	brd := board.New(board.DefaultConfig())
	dev, err := brd.NewRemoteDev("/dev/adder", regOpA, winSize)
	if err != nil {
		log.Fatal(err)
	}
	done := brd.K.NewSemaphore("adder.done", 0)
	brd.K.AttachInterrupt(irqDone, nil, func() { done.Post() })

	var results []uint32
	brd.K.CreateThread("adder-app", 10, func(c *rtos.ThreadCtx) {
		pairs := [][2]uint32{{2, 3}, {100, 23}, {40000, 2}}
		for _, p := range pairs {
			if _, err := dev.Write(c, regOpA, []uint32{p[0], p[1]}); err != nil {
				panic(err)
			}
			fmt.Printf("[board] tick %d: requested %d + %d\n", brd.K.SWTick(), p[0], p[1])
			done.Wait(c)
			buf := make([]uint32, 1)
			if _, err := dev.Read(c, regResult, buf); err != nil {
				panic(err)
			}
			fmt.Printf("[board] tick %d: result = %d\n", brd.K.SWTick(), buf[0])
			results = append(results, buf[0])
		}
		c.Exit()
	})

	// ---- run the two sides -------------------------------------------
	stats, err := federation.DriverSimulate(s, clk, brd, federation.Schedule{
		TSync:       50,
		TotalCycles: 2000,
		StopEarly:   func() bool { return len(results) == 3 },
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nco-simulation finished: %d cycles, %d syncs, %d interrupts\n",
		stats.Cycles, stats.SyncEvents, stats.Interrupts)
	fmt.Printf("results: %v (want [5 123 40002])\n", results)
	if len(results) != 3 || results[0] != 5 || results[1] != 123 || results[2] != 40002 {
		log.Fatal("quickstart: wrong results")
	}
}
