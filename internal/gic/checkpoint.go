package gic

// DistCheckpoint captures the distributor's interrupt state. The target
// wiring is fixed at machine assembly and is not part of the capture.
type DistCheckpoint struct {
	st    [distWords]uint64
	hi    [3][NumINTIDs]bool
	route [NumINTIDs]int
}

// Checkpoint captures the distributor state.
func (d *Dist) Checkpoint() *DistCheckpoint {
	return &DistCheckpoint{st: d.st, hi: d.hi, route: d.route}
}

// Restore returns the distributor to a checkpointed state. The generation
// moves on rather than back, so nothing guarded against the pre-restore
// generation can match again.
func (d *Dist) Restore(cp *DistCheckpoint) {
	gen := d.st[dGen]
	d.st = cp.st
	d.st[dGen] = gen + 1
	d.st[dTargets] = uint64(len(d.targets))
	d.hi = cp.hi
	d.route = cp.route
}
