package board

import (
	"fmt"
	"slices"

	"repro/internal/hdlsim"
	"repro/internal/rtos"
)

// RemoteDev is the paper's new device driver (section 5.3): it makes the
// device simulated on the host look like a memory-mapped peripheral. Its
// register window is a posted-write bridge:
//
//   - simulator→board register updates arrive as DATA-channel writes at
//     quantum boundaries and land in a local *shadow* copy, so application
//     reads are serviced locally at bus cost;
//   - board→simulator writes are posted to the board's outbox, handed
//     over at the end of the grant, and take effect in the simulator's
//     next quantum;
//   - true remote reads (bypassing the shadow) are split-phase: the
//     request is posted and the response arrives in a later grant.
//
// Interrupts from the device arrive with a grant and are latched on the
// kernel's interrupt controller by Board.Step; the application attaches
// its ISR/DSR pair with Kernel.AttachInterrupt as for any physical
// device.
type RemoteDev struct {
	name string
	base uint32
	size uint32

	b      *Board
	shadow []uint32

	respQ [][]uint32 // completed split-phase reads, FIFO

	inited bool
}

// NewRemoteDev creates the driver for a simulated device whose registers
// occupy [base, base+size) word addresses, registers it with the kernel,
// and returns it.
func (b *Board) NewRemoteDev(name string, base, size uint32) (*RemoteDev, error) {
	for _, d := range b.devs {
		if hdlsim.WindowsOverlap(base, size, d.base, d.size) {
			return nil, fmt.Errorf("board: device %q overlaps %q", name, d.name)
		}
	}
	d := &RemoteDev{name: name, base: base, size: size, b: b, shadow: make([]uint32, size)}
	if err := b.K.RegisterDriver(d); err != nil {
		return nil, err
	}
	b.devs = append(b.devs, d)
	return d, nil
}

// Name implements rtos.Driver.
func (d *RemoteDev) Name() string { return d.name }

// Init implements rtos.Driver; the driver is initialized at system boot
// and passively listens for the device's interrupt (attached separately by
// the application, which owns the service semantics).
func (d *RemoteDev) Init(k *rtos.Kernel) error {
	d.inited = true
	return nil
}

// Base returns the first word address of the device window.
func (d *RemoteDev) Base() uint32 { return d.base }

// Read implements rtos.Driver: it copies from the shadow window, charging
// bus cost per word to the calling thread.
func (d *RemoteDev) Read(c *rtos.ThreadCtx, off uint32, buf []uint32) (int, error) {
	if int(off)+len(buf) > int(d.size) {
		return 0, fmt.Errorf("board: %s: read [%d,%d) outside window", d.name, off, int(off)+len(buf))
	}
	c.Charge(d.b.cfg.MMIOReadCost * uint64(len(buf)))
	copy(buf, d.shadow[off:int(off)+len(buf)])
	return len(buf), nil
}

// Write implements rtos.Driver: it posts the words to the simulated device
// (visible there next quantum), charging bus cost per word.
func (d *RemoteDev) Write(c *rtos.ThreadCtx, off uint32, buf []uint32) (int, error) {
	if int(off)+len(buf) > int(d.size) {
		return 0, fmt.Errorf("board: %s: write [%d,%d) outside window", d.name, off, int(off)+len(buf))
	}
	c.Charge(d.b.cfg.MMIOWriteCost * uint64(len(buf)))
	d.b.post(hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: d.base + off, Words: buf})
	return len(buf), nil
}

// PostReadReq issues a split-phase remote read (bypassing the shadow); the
// response is retrieved later with TakeReadResp.
func (d *RemoteDev) PostReadReq(c *rtos.ThreadCtx, off, count uint32) error {
	if uint64(off)+uint64(count) > uint64(d.size) {
		return fmt.Errorf("board: %s: remote read [%d,+%d) outside window", d.name, off, count)
	}
	c.Charge(d.b.cfg.MMIOWriteCost)
	d.b.post(hdlsim.DataMsg{Kind: hdlsim.DataReadReq, Addr: d.base + off, Count: count})
	return nil
}

// TakeReadResp pops the oldest completed split-phase read, if any.
func (d *RemoteDev) TakeReadResp() ([]uint32, bool) {
	if len(d.respQ) == 0 {
		return nil, false
	}
	r := d.respQ[0]
	d.respQ = d.respQ[1:]
	return r, true
}

// PeekShadow reads a shadow register without charging (ISR/DSR context,
// where cost is covered by the configured ISR/DSR charges).
func (d *RemoteDev) PeekShadow(off uint32) uint32 {
	if off >= d.size {
		panic(fmt.Sprintf("board: %s: PeekShadow(%d) outside window", d.name, off))
	}
	return d.shadow[off]
}

// PeekShadowBlock copies count shadow words starting at off (DSR context).
func (d *RemoteDev) PeekShadowBlock(off, count uint32) []uint32 {
	return d.AppendShadowBlock(make([]uint32, 0, count), off, count)
}

// AppendShadowBlock appends count shadow words starting at off to dst; the
// allocation-free form for DSRs that reuse a scratch buffer.
func (d *RemoteDev) AppendShadowBlock(dst []uint32, off, count uint32) []uint32 {
	if uint64(off)+uint64(count) > uint64(d.size) {
		panic(fmt.Sprintf("board: %s: PeekShadowBlock outside window", d.name))
	}
	return append(dst, d.shadow[off:off+count]...)
}

// applyWrite lands a simulator write, whose Addr lies in the window, in
// the shadow copy.
func (d *RemoteDev) applyWrite(m hdlsim.DataMsg) error {
	off := m.Addr - d.base
	if int(off)+len(m.Words) > int(d.size) {
		return fmt.Errorf("board: %s: simulator write [%#x,+%d) overflows window", d.name, m.Addr, len(m.Words))
	}
	copy(d.shadow[off:], m.Words)
	return nil
}

func (d *RemoteDev) deliverReadResp(words []uint32) {
	d.respQ = append(d.respQ, slices.Clone(words))
}
