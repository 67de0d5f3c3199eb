package hdlsim

import (
	"fmt"

	"repro/internal/sim"
)

// Logic is a four-state logic value in the IEEE 1164 tradition: strong 0,
// strong 1, unknown X and high-impedance Z. It is the element type for
// modelling shared buses with multiple drivers (tri-state outputs), which
// single-driver Signal/BitSignal cannot express.
type Logic uint8

const (
	// L0 is a driven strong zero.
	L0 Logic = iota
	// L1 is a driven strong one.
	L1
	// LX is the unknown/conflict value.
	LX
	// LZ is high impedance (not driving).
	LZ
)

// String implements fmt.Stringer with the conventional characters.
func (l Logic) String() string {
	switch l {
	case L0:
		return "0"
	case L1:
		return "1"
	case LX:
		return "X"
	case LZ:
		return "Z"
	default:
		return fmt.Sprintf("Logic(%d)", uint8(l))
	}
}

// LogicFromBool converts a bool to a driven logic level.
func LogicFromBool(b bool) Logic {
	if b {
		return L1
	}
	return L0
}

// Bool converts a logic level to a bool; ok is false for X and Z.
func (l Logic) Bool() (v, ok bool) {
	switch l {
	case L0:
		return false, true
	case L1:
		return true, true
	default:
		return false, false
	}
}

// resolveTable implements the standard wired resolution: Z yields to any
// driver; agreeing drivers keep their value; disagreeing strong drivers
// or any X produce X.
var resolveTable = [4][4]Logic{
	//         0   1   X   Z
	L0: {L0, LX, LX, L0},
	L1: {LX, L1, LX, L1},
	LX: {LX, LX, LX, LX},
	LZ: {L0, L1, LX, LZ},
}

// Resolve combines two simultaneous drive values.
func Resolve(a, b Logic) Logic {
	if a > LZ || b > LZ {
		return LX
	}
	return resolveTable[a][b]
}

// ResolveAll folds a set of drive values; an empty set floats (Z).
func ResolveAll(vals []Logic) Logic {
	out := LZ
	for _, v := range vals {
		out = Resolve(out, v)
	}
	return out
}

// ResolvedSignal is a multi-driver wire: each driver contributes a value
// (LZ when silent) and the committed value is the resolution of all
// contributions, with the usual evaluate/update semantics. It models a
// shared tri-state bus line.
type ResolvedSignal struct {
	sim     *Simulator
	name    string
	drivers []Logic
	pending []bool
	next    []Logic
	cur     Logic
	hasReq  bool
	changed *Event
	tracers []func(at sim.Time, v Logic)
}

// NewResolvedSignal creates a bus line with no drivers attached; the
// initial value is Z.
func NewResolvedSignal(s *Simulator, name string) *ResolvedSignal {
	r := &ResolvedSignal{sim: s, name: name, cur: LZ}
	r.changed = s.NewEvent(name + ".value_changed")
	s.signals = append(s.signals, r)
	return r
}

// SignalName returns the wire name.
func (r *ResolvedSignal) SignalName() string { return r.name }

// NewDriver attaches a driver and returns its handle. Drivers start at Z.
func (r *ResolvedSignal) NewDriver() *LogicDriver {
	id := len(r.drivers)
	r.drivers = append(r.drivers, LZ)
	r.next = append(r.next, LZ)
	r.pending = append(r.pending, false)
	return &LogicDriver{sig: r, id: id}
}

// Read returns the committed resolved value.
func (r *ResolvedSignal) Read() Logic { return r.cur }

// Changed returns the value-changed event.
func (r *ResolvedSignal) Changed() *Event { return r.changed }

// Trace registers a value-change callback.
func (r *ResolvedSignal) Trace(fn func(at sim.Time, v Logic)) {
	r.tracers = append(r.tracers, fn)
}

func (r *ResolvedSignal) update(now sim.Time) {
	if !r.hasReq {
		return
	}
	r.hasReq = false
	for i := range r.drivers {
		if r.pending[i] {
			r.pending[i] = false
			r.drivers[i] = r.next[i]
		}
	}
	v := ResolveAll(r.drivers)
	if v == r.cur {
		return
	}
	r.cur = v
	r.changed.notifyUpdate()
	for _, fn := range r.tracers {
		fn(now, v)
	}
}

func (r *ResolvedSignal) traceValue() string { return r.cur.String() }

// LogicDriver is one driver's handle on a resolved wire.
type LogicDriver struct {
	sig *ResolvedSignal
	id  int
}

// Drive requests this driver's contribution for the update phase.
func (d *LogicDriver) Drive(v Logic) {
	if v > LZ {
		v = LX
	}
	r := d.sig
	r.next[d.id] = v
	r.pending[d.id] = true
	if !r.hasReq {
		r.hasReq = true
		r.sim.requestUpdate(r)
	}
}

// Release stops driving (equivalent to Drive(LZ)).
func (d *LogicDriver) Release() { d.Drive(LZ) }
