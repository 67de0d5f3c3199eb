package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"time"
)

// The benchmark was built on a shared 2-vCPU VM whose speed changes with
// its neighbours' load: for seconds at a time every run takes up to 1.5×
// as long. A calibration kernel that uses no repository code slows down
// with it, when it runs on the same thread just before or after the run.
// So the benchmark runs the kernel between runs throughout the measured
// phase and divides each run's host time by the kernel's slowdown around
// it, the run's host factor. README.md gives the measurements behind this.
//
// The kernel runs only while no run is in flight and allocates nothing,
// so the program under test does not share the CPU with it and starts no
// garbage collection in it.

// refKernelNS is the kernel's median time on the benchmark's reference
// VM, so a factor of 1 means the host ran at its usual speed there.
const refKernelNS = 4.6e6

// probeEvery is the probing cadence: a probe waits until no run is in
// flight, so on the pairwise workloads about one probe falls between any
// two runs.
const probeEvery = 50 * time.Millisecond

// Kernel sizes. Each part takes 1–2 ms on the reference VM.
const (
	kernelInts      = 20000    // sorted and hashed into a map
	kernelBytes     = 64 << 10 // hashed with SHA-256
	kernelPingPongs = 2000     // goroutine channel round trips
	kernelTCPRounds = 200      // one-byte loopback TCP round trips
)

// calibrator owns the kernel's preallocated state and its loopback pair.
type calibrator struct {
	ints, sorted []int
	buckets      map[int]int
	bytes        []byte
	ping, pong   chan int
	ponged       chan struct{} // closed when the ping-pong goroutine exits
	client       net.Conn
	server       net.Conn
	echoed       chan struct{} // closed when the echo server exits
	roundTrip    [1]byte
	sink         byte
}

// probe is one kernel run: when it ended and how long it took.
type probe struct {
	at time.Time
	ns float64
}

func newCalibrator() (*calibrator, error) {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{
		ints:    make([]int, kernelInts),
		sorted:  make([]int, kernelInts),
		buckets: make(map[int]int, 4096),
		bytes:   make([]byte, kernelBytes),
		ping:    make(chan int),
		pong:    make(chan int),
		ponged:  make(chan struct{}),
		echoed:  make(chan struct{}),
	}
	for i := range c.ints {
		c.ints[i] = rng.Int()
	}
	go func() {
		defer close(c.ponged)
		for v := range c.ping {
			c.pong <- v
		}
	}()

	stopPingPong := func() {
		close(c.ping)
		<-c.ponged
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stopPingPong()
		return nil, fmt.Errorf("calibration kernel: %w", err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := ln.Accept()
		accepted <- conn
	}()
	c.client, err = net.Dial("tcp", ln.Addr().String())
	ln.Close()
	c.server = <-accepted
	if err != nil || c.server == nil {
		for _, conn := range []net.Conn{c.client, c.server} {
			if conn != nil {
				conn.Close()
			}
		}
		stopPingPong()
		return nil, fmt.Errorf("calibration kernel: loopback dial: %v", err)
	}
	go func() {
		defer close(c.echoed)
		var b [1]byte
		for {
			if _, err := c.server.Read(b[:]); err != nil {
				return
			}
			if _, err := c.server.Write(b[:]); err != nil {
				return
			}
		}
	}()
	return c, nil
}

// close stops the kernel's goroutines and waits for them to exit.
func (c *calibrator) close() {
	close(c.ping)
	<-c.ponged
	c.client.Close()
	c.server.Close()
	<-c.echoed
}

// run times the kernel once: a sort, a map and a hash for compute, then
// channel and loopback round trips for scheduler and system-call cost.
func (c *calibrator) run() (probe, error) {
	t0 := time.Now()
	copy(c.sorted, c.ints)
	sort.Ints(c.sorted)
	clear(c.buckets)
	for i, v := range c.sorted {
		c.buckets[v&4095] += i
	}
	for i := range c.bytes {
		c.bytes[i] = byte(c.sorted[i%len(c.sorted)])
	}
	sum := sha256.Sum256(c.bytes)
	c.sink += sum[0]
	for i := 0; i < kernelPingPongs; i++ {
		c.ping <- i
		<-c.pong
	}
	for i := 0; i < kernelTCPRounds; i++ {
		if _, err := c.client.Write(c.roundTrip[:]); err != nil {
			return probe{}, fmt.Errorf("calibration kernel: %w", err)
		}
		if _, err := io.ReadFull(c.client, c.roundTrip[:]); err != nil {
			return probe{}, fmt.Errorf("calibration kernel: %w", err)
		}
	}
	end := time.Now()
	return probe{at: end, ns: float64(end.Sub(t0))}, nil
}

// hostFactor is a run's host factor: the mean slowdown of the last probe
// before it started and the first after it ended. probes are in time
// order, and no probe overlaps a run.
func hostFactor(probes []probe, start time.Time) float64 {
	i := sort.Search(len(probes), func(i int) bool { return probes[i].at.After(start) })
	switch {
	case len(probes) == 0:
		return 1
	case i == 0:
		return probes[0].ns / refKernelNS
	case i == len(probes):
		return probes[i-1].ns / refKernelNS
	}
	return (probes[i-1].ns + probes[i].ns) / 2 / refKernelNS
}

// medianFactor is the median slowdown over all probes.
func medianFactor(probes []probe) float64 {
	if len(probes) == 0 {
		return 1
	}
	xs := make([]float64, len(probes))
	for i, p := range probes {
		xs[i] = p.ns / refKernelNS
	}
	return quantile(xs, 0.5)
}
