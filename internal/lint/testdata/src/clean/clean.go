// Package clean is the suite's negative control: idiomatic code that
// honors the ownership contract, stays on virtual time, and hoists its
// metric handles. Every analyzer must stay silent here.
package clean

import (
	"sort"

	"repro/internal/lint/testdata/src/cosim"
	"repro/internal/lint/testdata/src/obs"
)

type pump struct {
	tr     cosim.Transport
	frames *obs.Counter
}

func newPump(tr cosim.Transport, reg *obs.Registry) *pump {
	return &pump{tr: tr, frames: reg.Counter("pump_frames_total")}
}

func (p *pump) drain(budget int) (uint32, error) {
	var last uint32
	for i := 0; i < budget; i++ {
		m, ok, err := p.tr.TryRecv(cosim.ChanData)
		if err != nil {
			return last, err
		}
		if !ok {
			return last, nil
		}
		last = m.Addr
		p.frames.Inc()
	}
	return last, nil
}

func (p *pump) forward(ch cosim.Channel) error {
	m, err := p.tr.Recv(ch)
	if err != nil {
		return err
	}
	return p.tr.Send(ch, m)
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func totals(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}
