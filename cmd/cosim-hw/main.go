// Command cosim-hw runs the hardware-simulator side of the co-simulation:
// the SystemC-like kernel with the 4-port router testbench, listening for
// a board to connect over TCP — the role of the host PC in the paper's
// setup. Start it first, then launch cosim-board against the printed
// address.
//
//	cosim-hw -listen 127.0.0.1:9000 -tsync 1000 -n 100
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cosim"
	"repro/internal/cosim/federation"
	"repro/internal/obs"
	"repro/internal/router"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
	shmPath := flag.String("shm-path", "", "create a shared-memory link file at this path and serve the board through it instead of TCP")
	tsync := flag.Uint64("tsync", 1000, "synchronization interval in clock cycles")
	n := flag.Int("n", 100, "total packets to exchange (spread over 4 producers)")
	period := flag.Uint64("period", 1250, "per-producer packet period in cycles")
	fifo := flag.Int("fifo", 4, "router input FIFO capacity in packets")
	errRate := flag.Float64("errrate", 0, "fraction of deliberately corrupted packets")
	seed := flag.Int64("seed", 1, "traffic seed")
	pipelined := flag.Bool("pipelined", false, "overlap board and simulator quanta")
	tracePath := flag.String("trace", "", "write a protocol trace to this file")
	debugAddr := flag.String("debug-addr", "", "serve live metrics and pprof on this address (e.g. :6060)")
	flag.Parse()

	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		dbg, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-hw: %v\n", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("cosim-hw: debug server on http://%s (/metrics /metrics.json /healthz /debug/pprof)\n", dbg.Addr())
	}

	tbc := router.DefaultTBConfig()
	tbc.PacketsPerPort = *n / tbc.Ports
	tbc.Period = *period
	tbc.FIFOCap = *fifo
	tbc.ErrRate = *errRate
	tbc.Seed = *seed
	tb := router.BuildTestbench(tbc)

	var tr cosim.Transport
	if *shmPath != "" {
		t, err := cosim.CreateShm(*shmPath, cosim.ShmConfig{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-hw: %v\n", err)
			os.Exit(1)
		}
		defer os.Remove(*shmPath)
		tr = t
		fmt.Printf("cosim-hw: shm link ready at %s; waiting for board...\n", *shmPath)
	} else {
		ln, err := cosim.ListenTCP(*listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-hw: %v\n", err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Printf("cosim-hw: listening on %s (DATA/INT/CLOCK channels); waiting for board...\n", ln.Addr())
		tr, err = ln.Accept()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-hw: accept: %v\n", err)
			os.Exit(1)
		}
	}
	defer tr.Close()
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-hw: trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		tr = cosim.NewTraceTransport(tr, f)
	}
	if *shmPath != "" {
		fmt.Println("cosim-hw: starting driver_simulate (board attaches via shm)")
	} else {
		fmt.Println("cosim-hw: board connected; starting driver_simulate")
	}

	mode := cosim.SyncAlternating
	if *pipelined {
		mode = cosim.SyncPipelined
	}
	ep := cosim.NewHWEndpoint(tr, mode)
	if reg != nil {
		ep.Observe(reg)
	}
	stats, err := federation.DriverSimulate(tb.Sim, tb.Clk, ep, federation.Schedule{
		TSync:       *tsync,
		TotalCycles: tbc.WorkCycles() + 8**tsync + 20000,
		StopEarly:   tb.Finished,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosim-hw: %v\n", err)
		os.Exit(1)
	}
	rs := tb.Router.Stats()
	cs := tb.ConsumerTotals()
	bc, bt := ep.BoardTime()
	fmt.Printf("cosim-hw: done at %v\n", tb.Sim.Now())
	fmt.Printf("  cycles=%d syncs=%d interrupts=%d data(in/out)=%d/%d\n",
		stats.Cycles, stats.SyncEvents, stats.Interrupts, stats.DataIn, stats.DataOut)
	fmt.Printf("  packets: generated=%d forwarded=%d droppedFull=%d droppedChecksum=%d\n",
		tb.Generated(), rs.Forwarded, rs.DroppedFull, rs.DroppedChecksum)
	fmt.Printf("  consumers: received=%d integrityErrors=%d misrouted=%d\n",
		cs.Received, cs.IntegrityError, cs.Misrouted)
	fmt.Printf("  accuracy=%.1f%%  board time: %d cycles / %d sw ticks\n",
		100*float64(rs.Forwarded)/float64(tb.Generated()), bc, bt)
	fmt.Printf("  link: sent=%dB syncWait=%v wall=%v\n",
		ep.Metrics().BytesSent, ep.Metrics().SyncWait, ep.Metrics().Wall)
}
