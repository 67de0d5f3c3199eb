package router

import (
	"fmt"

	"repro/internal/hdlsim"
	"repro/internal/packet"
)

// Stats counts router activity. Conservation invariant:
//
//	Generated = Forwarded + DroppedFull + DroppedChecksum + Buffered
//
// where Buffered covers packets still in input FIFOs (including those
// whose verdicts were lost to board-side overruns and never return).
// Forwarded counts unique packets accepted for forwarding; Delivered
// counts the copies actually placed on output ports (Delivered >
// Forwarded exactly when multicast traffic is present).
type Stats struct {
	Received        uint64 // packets that arrived on input ports
	Forwarded       uint64 // unique packets accepted for forwarding
	Delivered       uint64 // copies placed on output ports
	DroppedFull     uint64 // arrived while the input FIFO was full
	DroppedChecksum uint64 // board reported a bad checksum
	PostedToBoard   uint64 // packets delivered to the RX ring
	Verdicts        uint64 // verdicts processed
}

// fifoEntry is one buffered packet; the slot is freed when the verdict
// arrives. seq is the router-global arrival number (used for round-robin
// engine assignment); engineSeq is assigned when the packet is posted and
// is local to that engine's RX ring.
type fifoEntry struct {
	seq       uint32
	pkt       *packet.Packet
	posted    bool
	engine    int
	engineSeq uint32
}

// Router is the 4-port (configurable) router model. It holds one bounded
// FIFO per input port, a routing table, and the driver ports through which
// the board's checksum application validates every packet.
type Router struct {
	hdlsim.BaseModule

	sim   *hdlsim.Simulator
	clk   *hdlsim.Clock
	ports int

	In  []*hdlsim.Signal[*packet.Packet]
	Out []*hdlsim.Signal[*packet.Packet]

	fifoCap int
	fifos   [][]fifoEntry
	txq     [][]*packet.Packet // verified packets awaiting an output slot

	routes map[uint16]int // destination address → output port

	engines []*chkEngine
	nextSeq uint32
	// unposted counts buffered entries not yet posted to their engine, so
	// a cycle with none skips the post scan; entries wait in the FIFOs
	// for up to a quantum after posting, until their verdict returns.
	unposted int

	stats Stats
}

// chkEngine is one checksum-offload engine: a driver_in for verdicts, a
// driver_out RX ring, and the bookkeeping of packets awaiting a verdict.
// A single-board setup has one engine; multi-board setups give each board
// its own engine window (see EngineBase/EngineIRQ).
type chkEngine struct {
	idx  int
	base uint32
	din  *hdlsim.DriverIn
	dout *hdlsim.DriverOut

	outstanding map[uint32]outPkt
	nextSeq     uint32 // engine-local sequence counter
	pendingSeq  uint32 // verdict parser state: seq word seen, OK pending
	haveSeq     bool
}

type outPkt struct {
	pkt *packet.Packet
}

// Config parameterizes the router model.
type Config struct {
	// Ports is the number of input (and output) ports; the paper uses 4.
	Ports int
	// FIFOCap is the per-input buffer capacity in packets.
	FIFOCap int
	// Engines is the number of checksum-offload engines (boards serving
	// verification); packets are assigned round-robin by sequence number.
	// 0 means 1.
	Engines int
}

// DefaultConfig matches the experiments' setup.
func DefaultConfig() Config { return Config{Ports: 4, FIFOCap: 8, Engines: 1} }

// New builds the router, creating its port signals and driver ports on the
// given simulator.
func New(s *hdlsim.Simulator, clk *hdlsim.Clock, cfg Config) *Router {
	if cfg.Ports < 1 {
		panic("router: need at least one port")
	}
	if cfg.FIFOCap < 1 {
		panic("router: FIFO capacity must be ≥ 1")
	}
	if cfg.Engines < 1 {
		cfg.Engines = 1
	}
	r := &Router{
		BaseModule: hdlsim.BaseModule{Name: "router"},
		sim:        s,
		clk:        clk,
		ports:      cfg.Ports,
		fifoCap:    cfg.FIFOCap,
		fifos:      make([][]fifoEntry, cfg.Ports),
		txq:        make([][]*packet.Packet, cfg.Ports),
		routes:     make(map[uint16]int),
	}
	for i := 0; i < cfg.Ports; i++ {
		r.In = append(r.In, hdlsim.NewSignal[*packet.Packet](s, fmt.Sprintf("router.in%d", i)))
		r.Out = append(r.Out, hdlsim.NewSignal[*packet.Packet](s, fmt.Sprintf("router.out%d", i)))
	}
	for e := 0; e < cfg.Engines; e++ {
		eng := &chkEngine{idx: e, base: EngineBase(e), outstanding: make(map[uint32]outPkt)}
		eng.din = s.NewDriverIn(fmt.Sprintf("router.verdict_in%d", e),
			eng.base+RegVerdictBase, VerdictWords)
		eng.dout = s.NewDriverOut(fmt.Sprintf("router.rx_out%d", e),
			eng.base+RegRxSeq, WindowSize-RegRxSeq)
		r.engines = append(r.engines, eng)
		s.DriverProcess(fmt.Sprintf("router.driver%d", e),
			func() { r.onVerdictData(eng) }, eng.din)
	}

	for i := 0; i < cfg.Ports; i++ {
		i := i
		s.Method(fmt.Sprintf("router.input%d", i), func() { r.onInput(i) },
			r.In[i].Changed()).DontInitialize()
	}
	s.Method("router.main", r.mainCycle, clk.Posedge()).DontInitialize()
	return r
}

// SetRoute maps a destination address to an output port (the "routing
// table embedded into the router").
func (r *Router) SetRoute(dst uint16, port int) {
	if port < 0 || port >= r.ports {
		panic(fmt.Sprintf("router: route to invalid port %d", port))
	}
	r.routes[dst] = port
}

// RouteOf returns the output port for a destination (default: dst mod
// ports, so small testbenches work without explicit table setup).
func (r *Router) RouteOf(dst uint16) int {
	if p, ok := r.routes[dst]; ok {
		return p
	}
	return int(dst) % r.ports
}

// Stats returns a snapshot of the counters.
func (r *Router) Stats() Stats { return r.stats }

// InFlight returns unique packets currently buffered in input FIFOs
// (awaiting post or verdict). Copies queued on output ports are already
// counted as Forwarded.
func (r *Router) InFlight() int {
	n := 0
	for _, f := range r.fifos {
		n += len(f)
	}
	return n
}

// txPending reports whether any output queue still holds copies.
func (r *Router) txPending() bool {
	for _, q := range r.txq {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// outstandingCount sums packets awaiting verdicts across engines.
func (r *Router) outstandingCount() int {
	n := 0
	for _, eng := range r.engines {
		n += len(eng.outstanding)
	}
	return n
}

// Quiescent reports whether no packet is buffered, awaiting a verdict, or
// awaiting an output slot.
func (r *Router) Quiescent() bool {
	return r.InFlight() == 0 && r.outstandingCount() == 0 && !r.txPending()
}

// onInput handles a new packet on input port i: buffer it, or drop it if
// the buffer is full ("whenever a new packet arrives … it is stored into
// an internal buffer; if the buffer is full, the packet is dropped").
func (r *Router) onInput(i int) {
	p := r.In[i].Read()
	if p == nil {
		return
	}
	r.stats.Received++
	if len(r.fifos[i]) >= r.fifoCap {
		r.stats.DroppedFull++
		return
	}
	r.nextSeq++
	r.fifos[i] = append(r.fifos[i], fifoEntry{seq: r.nextSeq, pkt: p})
	r.unposted++
}

// mainCycle runs once per clock cycle: it posts newly buffered packets to
// their engine's RX ring (bounded by the ring depth) and drains verified
// packets to the output ports, one per port per cycle.
func (r *Router) mainCycle() {
	// Post pending packets, round-robin across inputs.
	for i := 0; i < r.ports && r.unposted > 0; i++ {
		for j := range r.fifos[i] {
			e := &r.fifos[i][j]
			if e.posted {
				continue
			}
			eng := r.engines[int(e.seq)%len(r.engines)]
			if len(eng.outstanding) >= NumSlots {
				continue // that engine's ring is full; try others
			}
			r.postPacket(eng, e)
		}
	}
	// Drain one verified copy per output port per cycle.
	for o := 0; o < r.ports; o++ {
		if len(r.txq[o]) == 0 {
			continue
		}
		p := r.txq[o][0]
		r.txq[o] = r.txq[o][1:]
		r.Out[o].Write(p)
		r.stats.Delivered++
	}
}

// postPacket writes the packet into the engine's RX slot, bumps the
// engine's sequence register and raises its packet interrupt.
func (r *Router) postPacket(eng *chkEngine, e *fifoEntry) {
	eng.nextSeq++
	eseq := eng.nextSeq
	words := e.pkt.Encode()
	slot := make([]uint32, 0, len(words)+1)
	slot = append(slot, uint32(len(words)))
	slot = append(slot, words...)
	addr := eng.base + SlotAddr(eseq)
	for i, w := range slot {
		eng.dout.Set(addr+uint32(i), w)
	}
	eng.dout.Post(addr, slot)
	eng.dout.Set(eng.base+RegRxSeq, eseq)
	eng.dout.Post(eng.base+RegRxSeq, []uint32{eseq})
	r.sim.RaiseDriverInterrupt(EngineIRQ(eng.idx))
	eng.outstanding[eseq] = outPkt{pkt: e.pkt}
	e.posted = true
	r.unposted--
	e.engine = eng.idx
	e.engineSeq = eseq
	r.stats.PostedToBoard++
}

// onVerdictData is the driver_process: it parses verdict blocks written by
// the engine's board ([seq, ok] word pairs) and forwards or drops.
func (r *Router) onVerdictData(eng *chkEngine) {
	for {
		w, ok := eng.din.Pop()
		if !ok {
			return
		}
		switch w.Addr - eng.base {
		case RegVerdictBase:
			eng.pendingSeq = w.Val
			eng.haveSeq = true
		case RegVerdictOK:
			if !eng.haveSeq {
				continue // stray OK word; protocol error tolerated
			}
			eng.haveSeq = false
			r.verdict(eng, eng.pendingSeq, w.Val != 0)
		}
	}
}

func (r *Router) verdict(eng *chkEngine, seq uint32, valid bool) {
	o, ok := eng.outstanding[seq]
	if !ok {
		return // duplicate or unknown verdict
	}
	delete(eng.outstanding, seq)
	r.stats.Verdicts++
	// Free the FIFO slot.
	for i := range r.fifos {
		for j := range r.fifos[i] {
			fe := &r.fifos[i][j]
			if fe.posted && fe.engine == eng.idx && fe.engineSeq == seq {
				r.fifos[i] = append(r.fifos[i][:j], r.fifos[i][j+1:]...)
				break
			}
		}
	}
	if !valid {
		r.stats.DroppedChecksum++
		return
	}
	r.stats.Forwarded++
	if o.pkt.IsMulticast() {
		mask := o.pkt.PortMask()
		for port := 0; port < r.ports; port++ {
			if mask&(1<<port) != 0 {
				r.txq[port] = append(r.txq[port], o.pkt)
			}
		}
		return
	}
	port := r.RouteOf(o.pkt.Dst)
	r.txq[port] = append(r.txq[port], o.pkt)
}
