package memctrl

import "repro/internal/dram"

// Clone returns a deep copy of the controller and its DIMMs. Energy meter
// pointers are carried over; platform forks rewire them via SetEnergy.
func (c *DRAMController) Clone() *DRAMController {
	out := &DRAMController{
		ctrlLat: c.ctrlLat,
		em:      c.em,
	}
	out.dimms = make([]*dram.DIMM, len(c.dimms))
	for i, d := range c.dimms {
		out.dimms[i] = d.Clone()
	}
	return out
}
