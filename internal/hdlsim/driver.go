package hdlsim

import (
	"fmt"
	"sort"
)

// This file implements the SystemC kernel modifications of Fummi et al.
// (DATE 2005), section 5.2:
//
//   - two new port classes, driver_in and driver_out, devoted exclusively
//     to communication between a module and the OS running on the board
//     (here: DriverIn receives board→HW register writes, DriverOut exposes
//     the HW registers the board reads and lets the model post writes);
//   - a special process kind, driver_process, triggered when new data is
//     present on a driver_in port (here: a Method sensitive to
//     DriverIn.Data());
//   - a replacement main loop driver_simulate that opens the communication
//     channels and interleaves socket servicing with simulation cycles.

// DataKind discriminates messages on the DATA channel.
type DataKind uint8

const (
	// DataWrite carries register writes (either direction).
	DataWrite DataKind = iota + 1
	// DataReadReq asks the other side for Count words starting at Addr.
	DataReadReq
	// DataReadResp answers a DataReadReq.
	DataReadResp
)

// String implements fmt.Stringer.
func (k DataKind) String() string {
	switch k {
	case DataWrite:
		return "write"
	case DataReadReq:
		return "read-req"
	case DataReadResp:
		return "read-resp"
	default:
		return fmt.Sprintf("DataKind(%d)", uint8(k))
	}
}

// DataMsg is one DATA-channel message as seen by the kernel. Addresses are
// word addresses in the remote device's register space.
type DataMsg struct {
	Kind  DataKind
	Addr  uint32
	Count uint32   // for DataReadReq
	Words []uint32 // for DataWrite / DataReadResp
}

// DriverEndpoint is the kernel's view of the co-simulation link. The cosim
// package provides implementations over TCP and over in-process channels;
// the kernel never sees sockets directly.
type DriverEndpoint interface {
	// PollData returns board→HW DATA messages that are available for this
	// quantum, without blocking.
	PollData() []DataMsg
	// SendData delivers a HW→board DATA message (read responses, posted
	// writes).
	SendData(DataMsg) error
	// SendInterrupt notifies the board of interrupt line irq (INT port).
	SendInterrupt(irq uint8) error
	// Sync performs the CLOCK-port rendezvous: grant the board `ticks`
	// virtual ticks of execution and (eventually) obtain its local time.
	// hwCycle is the kernel's cycle count at the synchronization point.
	Sync(ticks uint64, hwCycle uint64) (boardCycle uint64, err error)
	// Finish tells the board the co-simulation is over.
	Finish(hwCycle uint64) error
}

// RegWrite is one word written by the board into a DriverIn port.
type RegWrite struct {
	Addr uint32
	Val  uint32
}

// DriverIn is the paper's driver_in port: a queue of board-initiated
// register writes targeted at [Base, Base+Size) in the device's word
// address space, with an event that fires when data arrives, so a
// driver_process can react.
type DriverIn struct {
	sim  *Simulator
	name string
	Base uint32
	Size uint32

	q    []RegWrite
	data *Event
}

// NewDriverIn registers a driver_in port covering size words at base.
// Ranges of distinct DriverIns must not overlap.
func (s *Simulator) NewDriverIn(name string, base, size uint32) *DriverIn {
	d := &DriverIn{sim: s, name: name, Base: base, Size: size, data: s.NewEvent(name + ".data")}
	for _, o := range s.driverIns {
		if rangesOverlap(o.Base, o.Size, base, size) {
			panic(fmt.Sprintf("hdlsim: driver_in %q overlaps %q", name, o.name))
		}
	}
	s.driverIns = append(s.driverIns, d)
	sort.Slice(s.driverIns, func(i, j int) bool { return s.driverIns[i].Base < s.driverIns[j].Base })
	return d
}

func rangesOverlap(b1, s1, b2, s2 uint32) bool {
	return b1 < b2+s2 && b2 < b1+s1
}

// Name returns the port name.
func (d *DriverIn) Name() string { return d.name }

// Data returns the event notified when a new board write is queued; a
// DriverProcess is sensitive to it.
func (d *DriverIn) Data() *Event { return d.data }

// Pending returns the number of queued writes.
func (d *DriverIn) Pending() int { return len(d.q) }

// Pop removes and returns the oldest queued write.
func (d *DriverIn) Pop() (RegWrite, bool) {
	if len(d.q) == 0 {
		return RegWrite{}, false
	}
	w := d.q[0]
	d.q = d.q[1:]
	return w, true
}

// push is called by the kernel's driver loop when a board write lands in
// this port's range.
func (d *DriverIn) push(w RegWrite) {
	d.q = append(d.q, w)
	d.data.Notify()
}

// DriverOut is the paper's driver_out port: a register window the board
// can read over the DATA channel, plus a posted-write path for the model
// to push data to the board unsolicited.
type DriverOut struct {
	sim  *Simulator
	name string
	Base uint32
	Size uint32

	regs   []uint32
	posted []DataMsg
}

// NewDriverOut registers a driver_out port exposing size readable words at
// base. Ranges of distinct DriverOuts must not overlap.
func (s *Simulator) NewDriverOut(name string, base, size uint32) *DriverOut {
	d := &DriverOut{sim: s, name: name, Base: base, Size: size, regs: make([]uint32, size)}
	for _, o := range s.driverOuts {
		if rangesOverlap(o.Base, o.Size, base, size) {
			panic(fmt.Sprintf("hdlsim: driver_out %q overlaps %q", name, o.name))
		}
	}
	s.driverOuts = append(s.driverOuts, d)
	return d
}

// Name returns the port name.
func (d *DriverOut) Name() string { return d.name }

// Set updates readable register addr (absolute word address) to val.
func (d *DriverOut) Set(addr, val uint32) {
	if addr < d.Base || addr >= d.Base+d.Size {
		panic(fmt.Sprintf("hdlsim: driver_out %q: Set(%#x) outside [%#x,%#x)", d.name, addr, d.Base, d.Base+d.Size))
	}
	d.regs[addr-d.Base] = val
}

// Get returns the current value of readable register addr.
func (d *DriverOut) Get(addr uint32) uint32 {
	if addr < d.Base || addr >= d.Base+d.Size {
		panic(fmt.Sprintf("hdlsim: driver_out %q: Get(%#x) outside range", d.name, addr))
	}
	return d.regs[addr-d.Base]
}

// Post queues an unsolicited HW→board write (flushed by the driver loop at
// the end of the current cycle).
func (d *DriverOut) Post(addr uint32, words []uint32) {
	cp := make([]uint32, len(words))
	copy(cp, words)
	d.posted = append(d.posted, DataMsg{Kind: DataWrite, Addr: addr, Words: cp})
}

// DriverProcess registers the paper's driver_process: a method process
// sensitive to data arrival on the given driver_in ports.
func (s *Simulator) DriverProcess(name string, fn func(), ins ...*DriverIn) *Process {
	events := make([]*Event, len(ins))
	for i, d := range ins {
		events[i] = d.Data()
	}
	p := s.Method(name, fn, events...)
	p.DontInitialize()
	return p
}

// intWatch is a level-to-edge detector on an interrupt request signal: the
// driver loop checks it after every cycle and sends one INT-port packet per
// rising level, mirroring "the interrupt signal is checked; if it is
// active, a packet is sent to the board via the INT_PORT".
type intWatch struct {
	sig  *BitSignal
	irq  uint8
	prev bool
}

// WatchInterrupt registers sig as the interrupt request line for irq.
func (s *Simulator) WatchInterrupt(sig *BitSignal, irq uint8) {
	s.intWatches = append(s.intWatches, &intWatch{sig: sig, irq: irq})
}

// RaiseDriverInterrupt queues a one-shot interrupt to the board, for models
// that signal completion imperatively instead of via an IRQ wire.
func (s *Simulator) RaiseDriverInterrupt(irq uint8) {
	s.intRaised = append(s.intRaised, irq)
}

// UnboundedLookahead is the lookahead value of a board (or any granted
// peer) with nothing scheduled at all. It mirrors cosim.UnboundedLookahead.
const UnboundedLookahead = ^uint64(0)

// AdaptiveEndpoint is the optional extension of DriverEndpoint that a
// transport endpoint implements to support adaptive quantum elongation
// (cosim.HWEndpoint does). DriverSimulate type-asserts for it when
// DriverConfig.Adaptive is set and falls back to plain TSync stepping when
// the endpoint does not provide it.
type AdaptiveEndpoint interface {
	DriverEndpoint
	// TrafficPending reports whether any DATA or INT message was sent
	// since the last grant. A boundary with pending traffic must
	// rendezvous: the traffic is announced by the very next grant.
	TrafficPending() bool
	// PeerLookahead returns the board's promise, in grant ticks, from the
	// most recent acknowledgement: how many ticks can elapse before
	// anything board-side can become runnable without simulator input.
	PeerLookahead() uint64
	// SetLead records the next grant's lead (see
	// QuantumParty.Rendezvous): the ticks the board runs before it
	// applies the grant's traffic.
	SetLead(ticks uint64)
}

// routeData dispatches one board→HW DATA message: writes land in the
// covering DriverIn; read requests are served from the covering DriverOut.
func (s *Simulator) routeData(ep DriverEndpoint, m DataMsg) error {
	switch m.Kind {
	case DataWrite:
		for i, w := range m.Words {
			addr := m.Addr + uint32(i)
			din := s.findDriverIn(addr)
			if din == nil {
				return fmt.Errorf("hdlsim: board write to unmapped address %#x", addr)
			}
			din.push(RegWrite{Addr: addr, Val: w})
		}
	case DataReadReq:
		words := make([]uint32, m.Count)
		for i := uint32(0); i < m.Count; i++ {
			addr := m.Addr + i
			dout := s.findDriverOut(addr)
			if dout == nil {
				return fmt.Errorf("hdlsim: board read from unmapped address %#x", addr)
			}
			words[i] = dout.Get(addr)
		}
		return ep.SendData(DataMsg{Kind: DataReadResp, Addr: m.Addr, Words: words})
	default:
		return fmt.Errorf("hdlsim: unexpected DATA message kind %v from board", m.Kind)
	}
	return nil
}

func (s *Simulator) findDriverIn(addr uint32) *DriverIn {
	for _, d := range s.driverIns {
		if addr >= d.Base && addr < d.Base+d.Size {
			return d
		}
	}
	return nil
}

func (s *Simulator) findDriverOut(addr uint32) *DriverOut {
	for _, d := range s.driverOuts {
		if addr >= d.Base && addr < d.Base+d.Size {
			return d
		}
	}
	return nil
}

// Driver is the per-cycle core of the modified simulation loop, exported
// so external coordinators (the federation time manager) can drive a
// kernel with exactly the cycle semantics of DriverSimulate: per cycle
// it (1) checks the DATA port and performs the required read/write
// actions, (2) accomplishes a standard simulation cycle, and (3) checks
// the interrupt signals. It is DriverSimulate's QuantumParty: Advance
// steps the kernel, Boundary and Rendezvous talk to the board through
// the endpoint. When to rendezvous belongs to RunSchedule.
type Driver struct {
	s   *Simulator
	clk *Clock
	ep  DriverEndpoint
	aep AdaptiveEndpoint // set when the run negotiates lookahead
	st  DriverStats
}

// NewDriver elaborates the design and returns a stepper over it. Advance
// only needs the endpoint's PollData/SendData/SendInterrupt.
func (s *Simulator) NewDriver(clk *Clock, ep DriverEndpoint) (*Driver, error) {
	if err := s.Elaborate(); err != nil {
		return nil, err
	}
	return &Driver{s: s, clk: clk, ep: ep}, nil
}

// Advance runs driver-loop cycles until the cycle count reaches until or
// the simulation stops itself (sc_stop, reported as halted).
func (d *Driver) Advance(until uint64) (reached uint64, halted bool, err error) {
	for d.st.Cycles < until && !d.s.stopped {
		if err := d.cycle(); err != nil {
			return d.st.Cycles, d.s.stopped, err
		}
	}
	return d.st.Cycles, d.s.stopped, nil
}

// Boundary reports the endpoint's pending traffic and the board's
// lookahead promise.
func (d *Driver) Boundary() (traffic bool, peer uint64) {
	return d.aep.TrafficPending(), d.aep.PeerLookahead()
}

// Rendezvous performs the CLOCK-port sync, granting the board acc ticks
// at cycle now; adaptive runs carry the lead on the grant.
func (d *Driver) Rendezvous(acc, lead, now uint64) error {
	if d.aep != nil {
		d.aep.SetLead(lead)
	}
	bc, err := d.ep.Sync(acc, now)
	if err != nil {
		return err
	}
	d.st.LastBoardCy = bc
	return nil
}

// cycle performs one driver-loop iteration: route inbound DATA, run one
// clock cycle, scan interrupt lines, and flush posted driver_out writes.
func (d *Driver) cycle() error {
	// (1) Check for the presence of data on DATA_PORT.
	for _, m := range d.ep.PollData() {
		d.st.DataIn++
		if err := d.s.routeData(d.ep, m); err != nil {
			return err
		}
		if m.Kind == DataReadReq {
			d.st.DataOut++
		}
	}
	// (2) A standard simulation cycle is accomplished.
	if err := d.s.RunCycles(d.clk, 1); err != nil {
		return err
	}
	d.st.Cycles++
	// (3) The interrupt signal is checked.
	for _, w := range d.s.intWatches {
		level := w.sig.Read()
		if level && !w.prev {
			if err := d.ep.SendInterrupt(w.irq); err != nil {
				return err
			}
			d.st.Interrupts++
		}
		w.prev = level
	}
	for _, irq := range d.s.intRaised {
		if err := d.ep.SendInterrupt(irq); err != nil {
			return err
		}
		d.st.Interrupts++
	}
	d.s.intRaised = d.s.intRaised[:0]
	// Flush posted driver_out writes.
	for _, out := range d.s.driverOuts {
		for _, m := range out.posted {
			if err := d.ep.SendData(m); err != nil {
				return err
			}
			d.st.DataOut++
		}
		out.posted = out.posted[:0]
	}
	return nil
}

// Stopped reports whether the simulator ended the run (sc_stop).
func (d *Driver) Stopped() bool { return d.s.stopped }

// Stats returns the driver-loop counters accumulated so far. SyncEvents,
// SyncsElided and LastBoardCy belong to the schedule: only DriverSimulate
// fills them; a Driver stepped by another coordinator leaves them zero.
func (d *Driver) Stats() DriverStats { return d.st }

// DriverStats reports what DriverSimulate did.
type DriverStats struct {
	Cycles      uint64 // clock cycles simulated
	SyncEvents  uint64 // CLOCK-port rendezvous performed
	DataIn      uint64 // board→HW DATA messages routed
	DataOut     uint64 // HW→board DATA messages sent (posted + read resps)
	Interrupts  uint64 // INT-port packets sent
	SyncsElided uint64 // TSync boundaries skipped by adaptive elongation
	LastBoardCy uint64 // board local cycle at the final sync
}

// DriverSimulate is the paper's modified simulation entry point: it
// replaces the plain simulate() loop with one that, per clock cycle,
// (1) checks the DATA port and performs the required read/write actions,
// (2) accomplishes a standard simulation cycle, and (3) checks the
// interrupt signals, sending an INT-port packet when one is active; every
// cfg.TSync cycles it performs the CLOCK-port synchronization rendezvous
// that grants the board its next slice of virtual ticks. The schedule is
// RunSchedule's.
func (s *Simulator) DriverSimulate(clk *Clock, ep DriverEndpoint, cfg DriverConfig) (DriverStats, error) {
	d, err := s.NewDriver(clk, ep)
	if err != nil {
		return DriverStats{}, err
	}
	if aep, ok := ep.(AdaptiveEndpoint); ok && cfg.Adaptive {
		d.aep = aep
	}
	cfg.Adaptive = d.aep != nil
	st, err := RunSchedule(cfg, d)
	d.st.SyncEvents, d.st.SyncsElided = st.Syncs, st.Elided
	if err != nil {
		return d.st, err
	}
	return d.st, ep.Finish(d.st.Cycles)
}
