// Command cosim-board runs the board side of the co-simulation: the
// virtual SCM2x0-class board booting the RTOS with the remote router
// device driver and the checksum application, dialing the simulator over
// TCP — the role of the physical board in the paper's setup.
//
//	cosim-board -connect 127.0.0.1:9000
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/board"
	"repro/internal/cosim"
	"repro/internal/obs"
	"repro/internal/router"
)

// openShmRetry attaches to the shared-memory link file, tolerating both
// a not-yet-created file (cosim-hw still starting) and the brief window
// where the file exists but the segment header is not yet stamped.
func openShmRetry(path string, patience time.Duration) (cosim.Transport, error) {
	var err error
	for end := time.Now().Add(patience); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		var tr cosim.Transport
		if tr, err = cosim.OpenShm(path); err == nil {
			return tr, nil
		}
	}
	return nil, err
}

func main() {
	connect := flag.String("connect", "127.0.0.1:9000", "simulator address")
	shmPath := flag.String("shm-path", "", "attach to the shared-memory link file created by cosim-hw -shm-path instead of dialing TCP")
	annotated := flag.Bool("annotated", false, "use analytic software timing instead of the ISS")
	watchdog := flag.Uint64("watchdog", 0, "install a watchdog with this timeout in HW ticks (0 = none)")
	tracePath := flag.String("trace", "", "write a protocol trace to this file")
	debugAddr := flag.String("debug-addr", "", "serve live metrics and pprof on this address (e.g. :6061)")
	flag.Parse()

	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		dbg, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-board: %v\n", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("cosim-board: debug server on http://%s (/metrics /metrics.json /healthz /debug/pprof)\n", dbg.Addr())
	}

	acfg := router.DefaultAppConfig()
	if *annotated {
		acfg.Timing = router.TimingAnnotated
	}
	acfg.WatchdogTimeout = *watchdog
	bs, err := router.BuildBoardSide(board.DefaultConfig(), acfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosim-board: %v\n", err)
		os.Exit(1)
	}

	var tr cosim.Transport
	if *shmPath != "" {
		tr, err = openShmRetry(*shmPath, 10*time.Second)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-board: shm %s: %v\n", *shmPath, err)
			os.Exit(1)
		}
	} else {
		tr, err = cosim.DialTCP(*connect)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-board: dial %s: %v\n", *connect, err)
			os.Exit(1)
		}
	}
	defer tr.Close()
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-board: trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		tr = cosim.NewTraceTransport(tr, f)
	}
	fmt.Printf("cosim-board: connected to %s; OS in %v state, waiting for virtual ticks\n",
		*connect, bs.Board.K.State())

	if err := cosim.Serve(tr, bs.Board, reg, "board"); err != nil {
		fmt.Fprintf(os.Stderr, "cosim-board: %v\n", err)
		os.Exit(1)
	}
	ks := bs.Board.K.Stats()
	as := bs.App.Stats()
	fmt.Printf("cosim-board: finished at %d cycles / %d sw ticks\n",
		bs.Board.K.Cycles(), bs.Board.K.SWTick())
	fmt.Printf("  grants=%d ticks=%d irqs=%d\n",
		bs.Board.Stats().Grants, bs.Board.Stats().TicksGranted, bs.Board.Stats().IRQsDelivered)
	fmt.Printf("  app: delivered=%d verified=%d corrupt=%d overruns=%d mboxDrops=%d issKcycles=%d\n",
		as.Delivered, as.Verified, as.Corrupt, as.Overruns, as.MboxDrops, as.ISSCycles/1000)
	fmt.Printf("  kernel: ctxSwitches=%d isrs=%d dsrs=%d stateSwitches=%d busy/idle/kernel cycles=%d/%d/%d\n",
		ks.ContextSwitches, ks.ISRs, ks.DSRs, ks.StateSwitches, ks.BusyCycles, ks.IdleCycles, ks.KernelCycles)
	if wd := bs.App.Watchdog(); wd != nil {
		fmt.Printf("  %v\n", wd)
	}
}
