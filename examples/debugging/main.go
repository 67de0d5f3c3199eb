// Debugging example: the observability tools in one place.
//
// The same tiny adder co-simulation as examples/quickstart, but with the
// protocol trace enabled on the simulator side and the design/kernel
// inventories dumped at the end — what you would reach for when a
// co-simulation misbehaves: which messages crossed, in what order, what
// every process/thread was doing when the run stopped.
//
//	go run ./examples/debugging
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/board"
	"repro/internal/cosim"
	"repro/internal/cosim/federation"
	"repro/internal/hdlsim"
	"repro/internal/rtos"
	"repro/internal/sim"
)

const (
	regOps    = 0x00
	regResult = 0x10
	irqDone   = 1
)

func main() {
	// Hardware: a 1-cycle adder.
	s := hdlsim.NewSimulator("debug-demo")
	clk := s.NewClock("clk", sim.NS(10))
	din := s.NewDriverIn("adder.ops", regOps, 2)
	dout := s.NewDriverOut("adder.result", regResult, 1)
	var a, b uint32
	got := 0
	s.DriverProcess("adder.driver", func() {
		for {
			w, ok := din.Pop()
			if !ok {
				return
			}
			if w.Addr == regOps {
				a = w.Val
				got++
			} else {
				b = w.Val
				got++
			}
			if got == 2 {
				got = 0
				sum := a + b
				dout.Set(regResult, sum)
				dout.Post(regResult, []uint32{sum})
				s.RaiseDriverInterrupt(irqDone)
			}
		}
	}, din)

	// Board: one request, then park.
	brd := board.New(board.DefaultConfig())
	dev, err := brd.NewRemoteDev("/dev/adder", regOps, 0x20)
	if err != nil {
		log.Fatal(err)
	}
	done := brd.K.NewSemaphore("done", 0)
	brd.K.AttachInterrupt(irqDone, nil, func() { done.Post() })
	var result uint32
	finished := false
	brd.K.CreateThread("adder-app", 10, func(c *rtos.ThreadCtx) {
		if _, err := dev.Write(c, regOps, []uint32{1000, 234}); err != nil {
			panic(err)
		}
		done.Wait(c)
		buf := make([]uint32, 1)
		if _, err := dev.Read(c, regResult, buf); err != nil {
			panic(err)
		}
		result = buf[0]
		finished = true
		c.Exit()
	})

	// Link with the protocol trace on the simulator side.
	hwT, boardT := cosim.NewInProcPair(64)
	fmt.Println("── protocol trace (simulator side) ──────────────────────────")
	traced := cosim.NewTraceTransport(hwT, os.Stdout)
	hw := cosim.NewHWEndpoint(traced, cosim.SyncAlternating)
	boardDone := make(chan error, 1)
	go func() { boardDone <- cosim.Serve(boardT, brd, nil, "board") }()
	if _, err := federation.DriverSimulate(s, clk, hw, federation.Schedule{
		TSync:       25,
		TotalCycles: 500,
		StopEarly:   func() bool { return finished },
	}); err != nil {
		log.Fatal(err)
	}
	hwT.Close()
	if err := <-boardDone; err != nil {
		log.Fatalf("board: %v", err)
	}

	fmt.Println("\n── design inventory (hdlsim.Describe) ───────────────────────")
	if err := s.Describe(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n── board kernel snapshot (rtos.Describe) ────────────────────")
	if err := brd.K.Describe(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nresult: 1000 + 234 = %d\n", result)
	if result != 1234 {
		log.Fatal("wrong result")
	}
}
