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
//     Its per-cycle core is Driver. When to synchronize with the board
//     is the quantum schedule's business: internal/cosim/federation owns
//     it, and its driver_simulate wrapper is the two-party run. This
//     package has no notion of a grant.

// DataKind discriminates the messages on the driver ports: the three
// DATA-channel kinds and the INT-port interrupt.
type DataKind uint8

const (
	// DataWrite carries register writes (either direction).
	DataWrite DataKind = iota + 1
	// DataReadReq asks the other side for Count words starting at Addr.
	DataReadReq
	// DataReadResp answers a DataReadReq.
	DataReadResp
	// DataInterrupt raises interrupt line IRQ at the board (INT port).
	DataInterrupt
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
	case DataInterrupt:
		return "interrupt"
	default:
		return fmt.Sprintf("DataKind(%d)", uint8(k))
	}
}

// DataMsg is one driver-port message as seen by the kernel, and the event
// federates exchange at quantum boundaries. Addresses are word addresses
// in the remote device's register space. Words follows the wire
// protocol's ownership discipline: the sender hands the slice over and
// must not retain it.
type DataMsg struct {
	Kind  DataKind
	IRQ   uint8 // for DataInterrupt
	Addr  uint32
	Count uint32   // for DataReadReq
	Words []uint32 // for DataWrite / DataReadResp
}

// DriverEndpoint is the kernel's view of the DATA and INT ports. The cosim
// package provides implementations over its transports and an in-memory
// one for federations; the kernel never sees sockets directly.
type DriverEndpoint interface {
	// PollData returns board→HW DATA messages that are available for this
	// quantum, without blocking.
	PollData() []DataMsg
	// Send delivers a HW→board message: a read response or posted write
	// on DATA, an interrupt on INT.
	Send(DataMsg) error
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
		if WindowsOverlap(o.Base, o.Size, base, size) {
			panic(fmt.Sprintf("hdlsim: driver_in %q overlaps %q", name, o.name))
		}
	}
	s.driverIns = append(s.driverIns, d)
	sort.Slice(s.driverIns, func(i, j int) bool { return s.driverIns[i].Base < s.driverIns[j].Base })
	return d
}

// InWindow reports whether word address addr lies in [base, base+size).
// The end is computed in 64 bits, so a window ending at 2³² does not wrap
// to 0.
func InWindow(addr, base, size uint32) bool {
	return addr >= base && uint64(addr) < uint64(base)+uint64(size)
}

// WindowsOverlap reports whether [b1, b1+s1) and [b2, b2+s2) share a word
// address, with the ends computed in 64 bits as for InWindow.
func WindowsOverlap(b1, s1, b2, s2 uint32) bool {
	return uint64(b1) < uint64(b2)+uint64(s2) && uint64(b2) < uint64(b1)+uint64(s1)
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
		if WindowsOverlap(o.Base, o.Size, base, size) {
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
	if !InWindow(addr, d.Base, d.Size) {
		panic(fmt.Sprintf("hdlsim: driver_out %q: Set(%#x) outside [%#x,%#x)", d.name, addr, d.Base, uint64(d.Base)+uint64(d.Size)))
	}
	d.regs[addr-d.Base] = val
}

// Get returns the current value of readable register addr.
func (d *DriverOut) Get(addr uint32) uint32 {
	if !InWindow(addr, d.Base, d.Size) {
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
		// Count is the sender's: resolve the whole range, one DriverOut
		// window at a time, before allocating the response.
		for i := uint64(0); i < uint64(m.Count); {
			addr := m.Addr + uint32(i)
			dout := s.findDriverOut(addr)
			if dout == nil {
				return fmt.Errorf("hdlsim: board read from unmapped address %#x", addr)
			}
			i += uint64(dout.Base) + uint64(dout.Size) - uint64(addr)
		}
		words := make([]uint32, m.Count)
		for i := range words {
			addr := m.Addr + uint32(i)
			words[i] = s.findDriverOut(addr).Get(addr)
		}
		return ep.Send(DataMsg{Kind: DataReadResp, Addr: m.Addr, Words: words})
	default:
		return fmt.Errorf("hdlsim: unexpected %v message on the DATA port", m.Kind)
	}
	return nil
}

func (s *Simulator) findDriverIn(addr uint32) *DriverIn {
	for _, d := range s.driverIns {
		if InWindow(addr, d.Base, d.Size) {
			return d
		}
	}
	return nil
}

func (s *Simulator) findDriverOut(addr uint32) *DriverOut {
	for _, d := range s.driverOuts {
		if InWindow(addr, d.Base, d.Size) {
			return d
		}
	}
	return nil
}

// Driver is the per-cycle core of the modified simulation loop, exported
// so a coordinator (cosim.SimFederate under the federation time manager)
// can step a kernel: per cycle it (1) checks the DATA port and performs
// the required read/write actions, (2) accomplishes a standard
// simulation cycle, and (3) checks the interrupt signals.
type Driver struct {
	s   *Simulator
	clk *Clock
	ep  DriverEndpoint
	st  DriverStats
}

// NewDriver elaborates the design and returns a stepper over it.
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
	if err := d.s.stepCycle(d.clk); err != nil {
		return err
	}
	d.st.Cycles++
	// (3) The interrupt signal is checked.
	for _, w := range d.s.intWatches {
		level := w.sig.Read()
		if level && !w.prev {
			if err := d.ep.Send(DataMsg{Kind: DataInterrupt, IRQ: w.irq}); err != nil {
				return err
			}
			d.st.Interrupts++
		}
		w.prev = level
	}
	for _, irq := range d.s.intRaised {
		if err := d.ep.Send(DataMsg{Kind: DataInterrupt, IRQ: irq}); err != nil {
			return err
		}
		d.st.Interrupts++
	}
	d.s.intRaised = d.s.intRaised[:0]
	// Flush posted driver_out writes.
	for _, out := range d.s.driverOuts {
		for _, m := range out.posted {
			if err := d.ep.Send(m); err != nil {
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
// SyncsElided and LastBoardCy belong to the schedule and stay zero here;
// the federation package's driver_simulate wrapper and router.Run fill
// them from the time manager's stats.
func (d *Driver) Stats() DriverStats { return d.st }

// DriverStats reports what one driver_simulate run did.
type DriverStats struct {
	Cycles      uint64 // clock cycles simulated
	SyncEvents  uint64 // CLOCK-port rendezvous performed
	DataIn      uint64 // board→HW DATA messages routed
	DataOut     uint64 // HW→board DATA messages sent (posted + read resps)
	Interrupts  uint64 // INT-port packets sent
	SyncsElided uint64 // TSync boundaries skipped by adaptive elongation
	LastBoardCy uint64 // board local cycle at the final sync
}
