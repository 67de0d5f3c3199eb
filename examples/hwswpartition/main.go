// HW/SW partitioning example: should the CRC move into the FPGA?
//
// The paper's introduction motivates the framework with exactly this kind
// of question: a factory-automation vendor wants to extend an existing
// board with new hardware and must take early architectural decisions "by
// measuring the expected performance on the models". Here the candidate
// hardware is the CRC-16 accelerator (internal/accel), co-simulated
// against the real alternative: computing the CRC in software on the
// board's CPU (the RV32 ISS kernel).
//
// For each message size the example measures, in board CPU cycles:
//
//   - SW: cycles the CPU spends in the bitwise CRC kernel;
//
//   - HW busy: cycles the CPU spends feeding the accelerator over the bus;
//
//   - HW elapsed: request-to-result latency, which includes the
//     co-simulation quantum — offload latency depends on T_sync, so the
//     crossover point is itself a function of the synchronization interval.
//
//     go run ./examples/hwswpartition
//     go run ./examples/hwswpartition -tsync 200
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/accel"
	"repro/internal/board"
	"repro/internal/checksum"
	"repro/internal/cosim/federation"
	"repro/internal/hdlsim"
	"repro/internal/iss"
	"repro/internal/rtos"
	"repro/internal/sim"
)

const (
	accelBase = 0x100
	accelIRQ  = 9
)

type sample struct {
	size              int
	swCycles          uint64
	hwBusy, hwElapsed uint64
	swCRC, hwCRC      uint16
}

func main() {
	tsync := flag.Uint64("tsync", 50, "synchronization interval in clock cycles")
	flag.Parse()

	// Hardware side: the accelerator under design.
	s := hdlsim.NewSimulator("partition")
	clk := s.NewClock("clk", sim.NS(10))
	accel.New(s, clk, accelBase, accelIRQ, 4)

	// Board side.
	brd := board.New(board.DefaultConfig())
	dev, err := brd.NewRemoteDev("/dev/crc", accelBase, accel.WindowWords)
	if err != nil {
		log.Fatal(err)
	}
	done := brd.K.NewSemaphore("crc.done", 0)
	brd.K.AttachInterrupt(accelIRQ, nil, func() { done.Post() })

	sizes := []int{8, 32, 64, 128, 256}
	var samples []sample
	finished := false
	brd.K.CreateThread("partition-study", 10, func(c *rtos.ThreadCtx) {
		for _, n := range sizes {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i*7 + n)
			}
			smp := sample{size: n}

			// Software path: run the kernel on the ISS, charge its cycles.
			crc, cycles, err := iss.RunCRC16(data)
			if err != nil {
				panic(err)
			}
			c.Charge(cycles)
			smp.swCycles = cycles
			smp.swCRC = crc

			// Hardware path: marshal, start, wait for the interrupt.
			words, err := accel.PackBytes(data)
			if err != nil {
				panic(err)
			}
			busy0 := c.Thread().CyclesUsed()
			t0 := brd.K.Cycles()
			if _, err := dev.Write(c, accel.RegData, words); err != nil {
				panic(err)
			}
			if _, err := dev.Write(c, accel.RegLen, []uint32{uint32(n)}); err != nil {
				panic(err)
			}
			if _, err := dev.Write(c, accel.RegCtrl, []uint32{1}); err != nil {
				panic(err)
			}
			done.Wait(c)
			buf := make([]uint32, 1)
			if _, err := dev.Read(c, accel.RegResult, buf); err != nil {
				panic(err)
			}
			smp.hwBusy = c.Thread().CyclesUsed() - busy0
			smp.hwElapsed = brd.K.Cycles() - t0
			smp.hwCRC = uint16(buf[0])

			samples = append(samples, smp)
		}
		finished = true
		c.Exit()
	})

	// Run the two sides.
	if _, err := federation.DriverSimulate(s, clk, brd, federation.Schedule{
		TSync:       *tsync,
		TotalCycles: 2_000_000,
		StopEarly:   func() bool { return finished },
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("CRC-16 partitioning study (Tsync = %d cycles, offload latency ≈ 1–2 quanta)\n\n", *tsync)
	fmt.Printf("%8s  %12s  %12s  %12s  %s\n", "bytes", "SW [cycles]", "HW busy", "HW elapsed", "latency winner")
	for _, smp := range samples {
		if smp.swCRC != checksum.CRC16CCITT(makeMsg(smp.size)) || smp.swCRC != smp.hwCRC {
			log.Fatalf("CRC mismatch at %d bytes: sw=%#04x hw=%#04x", smp.size, smp.swCRC, smp.hwCRC)
		}
		winner := "software"
		if smp.hwElapsed < smp.swCycles {
			winner = "accelerator"
		}
		fmt.Printf("%8d  %12d  %12d  %12d  %s\n",
			smp.size, smp.swCycles, smp.hwBusy, smp.hwElapsed, winner)
	}
	fmt.Println("\nreading: the accelerator always frees the CPU (HW busy ≪ SW), but its")
	fmt.Println("request-to-result latency is dominated by the synchronization quantum —")
	fmt.Println("rerun with a different -tsync and watch the crossover move.")
}

func makeMsg(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + n)
	}
	return data
}
