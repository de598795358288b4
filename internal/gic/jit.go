package gic

import "github.com/nevesim/neve/internal/jit"

// The distributor's side of the trace-JIT layer: its state file.
//
// The three interrupt bitmaps of the IDs below jitINTIDs are packed words;
// every interrupt the model actually signals — SGIs, PPIs, and the device
// SPIs — lies below it. State the file does not hold word-for-word (IDs at
// or above jitINTIDs, SPI routing) is covered by the generation word:
// reading it guards the generation, and mutating it bumps the generation
// and poisons the active recording, which could not replay the mutation.
const (
	dEnabled = iota // packed enable bits
	dPending        // packed pending bits
	dActive         // packed active bits
	dCtlr           // GICD_CTLR
	dGen            // generation of the state held outside the file
	dTargets        // number of wired cores
	distWords
)

// jitINTIDs bounds the interrupt IDs tracked individually, as bits of the
// packed bitmap words.
const jitINTIDs = 64

// SetJIT registers the distributor's state file with e (nil detaches).
func (d *Dist) SetJIT(e *jit.Engine) {
	d.jt = nil
	if e != nil {
		d.jt = e.TapFor(d.st[:], false)
	}
}

func (d *Dist) word(i int) uint64 {
	d.jt.Read(i)
	return d.st[i]
}

func (d *Dist) setWord(i int, v uint64) {
	d.jt.Write(i)
	d.st[i] = v
}

// bit reads one interrupt's state in bitmap w (dEnabled, dPending or
// dActive).
func (d *Dist) bit(w, intid int) bool {
	if intid < jitINTIDs {
		return d.word(w)&(1<<uint(intid)) != 0
	}
	d.word(dGen)
	return d.hi[w][intid]
}

// setBit funnels every interrupt-bitmap mutation.
func (d *Dist) setBit(w, intid int, v bool) {
	if intid >= jitINTIDs {
		d.hi[w][intid] = v
		d.touch()
		return
	}
	old := d.word(w)
	if v {
		d.setWord(w, old|1<<uint(intid))
	} else {
		d.setWord(w, old&^(1<<uint(intid)))
	}
}

// routeOf returns an SPI's target core.
func (d *Dist) routeOf(intid int) int {
	d.word(dGen)
	return d.route[intid]
}

// touch records a mutation of state the file does not hold word-for-word.
func (d *Dist) touch() {
	d.jt.Poison()
	d.setWord(dGen, d.word(dGen)+1)
}
