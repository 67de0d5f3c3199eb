// Dual-board example: the multi-processor extension of the framework
// (the direction of the authors' MPSoC co-simulation work). When the
// verification software is compute-heavy, a single board cannot keep up
// with the router's packet rate inside its granted quanta: its mailbox
// backs up and packets drop even at a T_sync that is timing-wise safe.
// Splitting the checksum engines across two boards — each with its own
// DATA/INT/CLOCK link and device window — restores full accuracy.
//
//	go run ./examples/dualboard
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/router"
)

func main() {
	n := flag.Int("n", 200, "total packets")
	tsync := flag.Uint64("tsync", 2000, "synchronization interval")
	cost := flag.Uint64("cost", 40000, "per-packet verification cost in CPU cycles")
	flag.Parse()

	base := router.DefaultRunConfig()
	base.TB.PacketsPerPort = *n / base.TB.Ports
	base.TSync = *tsync
	// A heavyweight verification kernel (think DPI + signature check, not
	// just a checksum): modelled analytically so the cost is a dial.
	base.AppCfg.Timing = router.TimingAnnotated
	base.AppCfg.AnnotatedBase = *cost
	base.AppCfg.AnnotatedPerWord = 16

	fmt.Printf("workload: N=%d packets, Tsync=%d, verification cost ≈ %d cycles/packet\n\n",
		*n, *tsync, *cost)

	single, err := router.Run(context.Background(), router.Transports{}, router.WithConfig(base))
	if err != nil {
		log.Fatal(err)
	}
	dual, err := router.RunFederation(context.Background(), router.FederationConfig{Boards: 2},
		router.WithConfig(base), router.WithTransport(router.TransportInProc))
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, acc float64, fwd, drops, mbox uint64) {
		fmt.Printf("%-12s accuracy=%5.1f%%  forwarded=%3d  fifoDrops=%3d  mboxDrops=%d\n",
			name, 100*acc, fwd, drops, mbox)
	}
	report("one board:", single.Accuracy, single.Router.Forwarded,
		single.Router.DroppedFull, single.App.MboxDrops)
	var mbox uint64
	for _, a := range dual.Apps {
		mbox += a.MboxDrops
	}
	report("two boards:", dual.Accuracy, dual.Router.Forwarded,
		dual.Router.DroppedFull, mbox)
	fmt.Printf("\nper-board load split: %d / %d packets verified\n",
		dual.Apps[0].Delivered, dual.Apps[1].Delivered)

	if dual.Accuracy <= single.Accuracy {
		fmt.Println("\n(no win at these parameters — raise -cost or -n to saturate one board)")
	} else {
		fmt.Printf("\nsplitting the verification engines across two boards recovered %.1f%% of the traffic\n",
			100*(dual.Accuracy-single.Accuracy))
	}
}
