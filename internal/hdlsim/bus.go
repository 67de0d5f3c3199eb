package hdlsim

import "fmt"

// BusTarget is a memory-mapped slave on a Bus. Addresses passed to the
// callbacks are absolute word addresses (targets that prefer relative
// offsets subtract their base).
type BusTarget interface {
	// BusRead returns the word at addr.
	BusRead(addr uint32) (uint32, error)
	// BusWrite stores val at addr.
	BusWrite(addr, val uint32) error
}

type busMapping struct {
	base, size uint32
	target     BusTarget
}

// Bus is a transaction-level shared bus: word-granular reads and writes
// routed by address map, one transaction at a time (contending initiators
// block on the arbiter), each costing a fixed number of clock cycles.
// It is the glue between thread-process initiators (CPU models, DMA
// models) and register-file/memory targets inside an HDL model.
type Bus struct {
	sim     *Simulator
	clk     *Clock
	name    string
	latency uint64
	maps    []busMapping

	busy bool
	free *Event

	reads, writes, conflicts uint64
}

// NewBus creates a bus clocked by clk, charging `latency` cycles per
// transaction (≥ 1).
func NewBus(s *Simulator, clk *Clock, name string, latency uint64) *Bus {
	if latency < 1 {
		panic(fmt.Sprintf("hdlsim: bus %q latency must be ≥ 1 cycle", name))
	}
	return &Bus{
		sim:     s,
		clk:     clk,
		name:    name,
		latency: latency,
		free:    s.NewEvent(name + ".free"),
	}
}

// Map attaches a target at [base, base+size) word addresses.
func (b *Bus) Map(base, size uint32, t BusTarget) error {
	if size == 0 {
		return fmt.Errorf("hdlsim: bus %q: empty mapping", b.name)
	}
	for _, m := range b.maps {
		if WindowsOverlap(base, size, m.base, m.size) {
			return fmt.Errorf("hdlsim: bus %q: mapping [%#x,+%d) overlaps [%#x,+%d)",
				b.name, base, size, m.base, m.size)
		}
	}
	b.maps = append(b.maps, busMapping{base: base, size: size, target: t})
	return nil
}

func (b *Bus) targetFor(addr uint32) (BusTarget, error) {
	for _, m := range b.maps {
		if InWindow(addr, m.base, m.size) {
			return m.target, nil
		}
	}
	return nil, fmt.Errorf("hdlsim: bus %q: no target at %#x", b.name, addr)
}

// acquire arbitrates: the calling thread blocks while another transaction
// is in flight, then holds the bus.
func (b *Bus) acquire(c *Ctx) {
	for b.busy {
		b.conflicts++
		c.Wait(b.free)
	}
	b.busy = true
}

func (b *Bus) release() {
	b.busy = false
	b.free.Notify()
}

// Read performs one word read, blocking the calling thread for the bus
// latency (plus any arbitration wait).
func (b *Bus) Read(c *Ctx, addr uint32) (uint32, error) {
	t, err := b.targetFor(addr)
	if err != nil {
		return 0, err
	}
	b.acquire(c)
	defer b.release()
	c.WaitCycles(b.clk, b.latency)
	b.reads++
	return t.BusRead(addr)
}

// Write performs one word write with the same timing as Read.
func (b *Bus) Write(c *Ctx, addr, val uint32) error {
	t, err := b.targetFor(addr)
	if err != nil {
		return err
	}
	b.acquire(c)
	defer b.release()
	c.WaitCycles(b.clk, b.latency)
	b.writes++
	return t.BusWrite(addr, val)
}

// ReadBlock reads count consecutive words (count transactions).
func (b *Bus) ReadBlock(c *Ctx, addr uint32, buf []uint32) error {
	for i := range buf {
		v, err := b.Read(c, addr+uint32(i))
		if err != nil {
			return err
		}
		buf[i] = v
	}
	return nil
}

// Stats returns (reads, writes, arbitration conflicts).
func (b *Bus) Stats() (reads, writes, conflicts uint64) {
	return b.reads, b.writes, b.conflicts
}

// RAM is a word-addressable memory BusTarget.
type RAM struct {
	base  uint32
	words []uint32
}

// NewRAM creates a RAM of `size` words intended to be mapped at base.
func NewRAM(base, size uint32) *RAM {
	return &RAM{base: base, words: make([]uint32, size)}
}

// Size returns the capacity in words.
func (r *RAM) Size() uint32 { return uint32(len(r.words)) }

// BusRead implements BusTarget.
func (r *RAM) BusRead(addr uint32) (uint32, error) {
	off := addr - r.base
	if off >= uint32(len(r.words)) {
		return 0, fmt.Errorf("hdlsim: ram: read at %#x outside [%#x,+%d)", addr, r.base, len(r.words))
	}
	return r.words[off], nil
}

// BusWrite implements BusTarget.
func (r *RAM) BusWrite(addr, val uint32) error {
	off := addr - r.base
	if off >= uint32(len(r.words)) {
		return fmt.Errorf("hdlsim: ram: write at %#x outside [%#x,+%d)", addr, r.base, len(r.words))
	}
	r.words[off] = val
	return nil
}
