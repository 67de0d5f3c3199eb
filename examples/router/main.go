// Router example: the paper's full evaluation testbench — 4-port router
// with random traffic, checksum verification offloaded to software on the
// virtual board — in one process, with a VCD waveform of the router's
// activity written next to the binary.
//
//	go run ./examples/router -tsync 1000 -n 100
//	go run ./examples/router -tsync 20000 -n 100     # loose coupling: drops
//	go run ./examples/router -transport tcp -errrate 0.2
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/hdlsim"
	"repro/internal/router"
	"repro/internal/vcd"
)

func main() {
	tsync := flag.Uint64("tsync", 1000, "synchronization interval in clock cycles")
	n := flag.Int("n", 100, "total packets")
	errRate := flag.Float64("errrate", 0, "fraction of corrupted packets")
	transport := flag.String("transport", "inproc", "inproc|tcp")
	vcdPath := flag.String("vcd", "router.vcd", "waveform output file (empty to disable)")
	flag.Parse()

	rc := router.DefaultRunConfig()
	rc.TB.PacketsPerPort = *n / rc.TB.Ports
	rc.TB.ErrRate = *errRate
	rc.TSync = *tsync
	if *transport == "tcp" {
		rc.Transport = router.TransportTCP
	}

	// For the waveform we rebuild the testbench by hand so we can attach
	// monitor signals before the run (router.Run hides the testbench).
	tb := router.BuildTestbench(rc.TB)
	fwd := hdlsim.NewSignal[uint32](tb.Sim, "forwarded")
	for i, out := range tb.Router.Out {
		i := i
		tb.Sim.Method(fmt.Sprintf("mon%d", i), func() {
			if out.Read() != nil {
				fwd.Write(fwd.Read() + 1)
			}
		}, out.Changed()).DontInitialize()
	}
	var vw *vcd.Writer
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		vw = vcd.NewWriter(f, "router_tb")
		vw.AddClock("clk", tb.Clk)
		vcd.AddWord(vw, "forwarded", 32, fwd)
		if err := vw.Begin(); err != nil {
			log.Fatal(err)
		}
		defer vw.Close()
	}

	res, err := router.Run(context.Background(), router.Transports{}, router.WithConfig(rc))
	if err != nil {
		log.Fatal(err)
	}
	// Replay the same workload on the handmade testbench against the
	// instant loopback verifier to produce the waveform.
	if vw != nil {
		if _, err := tb.Loopback(router.NewLoopbackEndpoint(), rc.TB.WorkCycles()+20000, tb.Finished); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("waveform written to %s (%d packets traced)\n", *vcdPath, fwd.Read())
	}

	fmt.Println(res)
	rs := res.Router
	fmt.Printf("  forwarded=%d droppedFull=%d droppedChecksum=%d\n",
		rs.Forwarded, rs.DroppedFull, rs.DroppedChecksum)
	fmt.Printf("  board app: delivered=%d verified=%d corrupt=%d (ISS: %dk cycles)\n",
		res.App.Delivered, res.App.Verified, res.App.Corrupt, res.App.ISSCycles/1000)
	fmt.Printf("  consumers: received=%d integrityErrors=%d misrouted=%d\n",
		res.Consumers.Received, res.Consumers.IntegrityError, res.Consumers.Misrouted)
	fmt.Printf("  board time: %d cycles / %d sw ticks; link: %d B, sync wait %v\n",
		res.BoardCycles, res.BoardSWTicks, res.Link.BytesSent, res.Link.SyncWait)
	if res.Conservation != nil {
		log.Fatalf("packet conservation violated: %v", res.Conservation)
	}
}
