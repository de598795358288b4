// Package bench is the experiment harness: it assembles the paper's
// configurations through the internal/platform layer, runs the
// microbenchmarks and application workloads, and regenerates every
// evaluation table and figure (Tables 1, 6, 7 and Figure 2).
package bench

import (
	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/kvm"
	"github.com/nevesim/neve/internal/platform"
	"github.com/nevesim/neve/internal/workload"
	"github.com/nevesim/neve/internal/x86"
)

// ConfigID identifies one evaluated configuration: a thin view over the
// platform registry's seven paper specs, kept for stable table ordering
// and compact result keys.
type ConfigID int

const (
	ARMVM ConfigID = iota
	ARMNested
	ARMNestedVHE
	NEVENested
	NEVENestedVHE
	X86VM
	X86Nested
	numConfigs
)

// NumConfigs is the number of evaluated configurations.
const NumConfigs = int(numConfigs)

// SpecName returns the platform registry name backing the configuration.
func (c ConfigID) SpecName() string {
	switch c {
	case ARMVM:
		return "vm"
	case ARMNested:
		return "v8.3"
	case ARMNestedVHE:
		return "v8.3-vhe"
	case NEVENested:
		return "neve"
	case NEVENestedVHE:
		return "neve-vhe"
	case X86VM:
		return "x86-vm"
	case X86Nested:
		return "x86-nested"
	default:
		return ""
	}
}

// Spec returns the platform spec backing the configuration.
func (c ConfigID) Spec() platform.Spec {
	return platform.MustLookup(c.SpecName())
}

func (c ConfigID) String() string {
	switch c {
	case ARMVM:
		return "ARMv8.3 VM"
	case ARMNested:
		return "ARMv8.3 Nested"
	case ARMNestedVHE:
		return "ARMv8.3 Nested VHE"
	case NEVENested:
		return "NEVE Nested"
	case NEVENestedVHE:
		return "NEVE Nested VHE"
	case X86VM:
		return "x86 VM"
	case X86Nested:
		return "x86 Nested"
	default:
		return "unknown"
	}
}

// AllConfigs returns every configuration in Figure 2's legend order.
func AllConfigs() []ConfigID {
	return []ConfigID{ARMVM, ARMNested, ARMNestedVHE, NEVENested, NEVENestedVHE, X86VM, X86Nested}
}

// IsARM reports whether the configuration runs on the ARM stack.
func (c ConfigID) IsARM() bool { return c <= NEVENestedVHE }

// IsNested reports whether the configuration runs a nested VM.
func (c ConfigID) IsNested() bool {
	return c != ARMVM && c != X86VM
}

// NICSPI is the shared peripheral interrupt of the synthetic NIC on the
// ARM machine.
const NICSPI = platform.NICSPI

// NICVector is the x86 device vector of the synthetic NIC.
const NICVector = platform.NICVector

// build assembles the configuration's platform with the benchmark's CPU
// count. Registry specs are valid by construction, so Build cannot fail.
func build(id ConfigID, cpus int) platform.Platform {
	spec := id.Spec()
	spec.CPUs = cpus
	return platform.MustBuild(spec)
}

// RunMicro measures one microbenchmark operation (warm) on configuration
// id, returning cycles and traps to the host hypervisor.
func RunMicro(id ConfigID, op MicroOp) (cycles, traps uint64) {
	const cpus = 2
	return RunMicroOn(build(id, cpus), op)
}

// MicroOp selects a microbenchmark (Table 1/6/7 rows).
type MicroOp int

const (
	Hypercall MicroOp = iota
	DeviceIO
	VirtualIPI
	VirtualEOI
)

func (m MicroOp) String() string {
	switch m {
	case Hypercall:
		return "Hypercall"
	case DeviceIO:
		return "Device I/O"
	case VirtualIPI:
		return "Virtual IPI"
	case VirtualEOI:
		return "Virtual EOI"
	default:
		return "unknown"
	}
}

// MicroOps returns all microbenchmarks in table order.
func MicroOps() []MicroOp { return []MicroOp{Hypercall, DeviceIO, VirtualIPI, VirtualEOI} }

// RunMicroOn measures one microbenchmark operation (warm) on an already
// built platform — any spec the platform layer can express, not only the
// seven table columns (cmd/nevesim's `run` subcommand).
func RunMicroOn(p platform.Platform, op MicroOp) (cycles, traps uint64) {
	if p.ARM() != nil {
		return runMicroARM(p, op)
	}
	return runMicroX86(p, op)
}

func runMicroARM(p platform.Platform, op MicroOp) (cycles, traps uint64) {
	s := p.ARM()
	switch op {
	case Hypercall, DeviceIO:
		s.RunGuest(0, func(g *kvm.GuestCtx) {
			f := g.Hypercall
			if op == DeviceIO {
				f = func() { g.DeviceRead(0) }
			}
			f()
			s.M.Trace.Reset()
			before := g.CPU.Cycles()
			f()
			cycles = g.CPU.Cycles() - before
		})
		traps = s.M.Trace.Total()
	case VirtualIPI:
		c0, c1 := s.M.CPUs[0], s.M.CPUs[1]
		p.PreparePeer()
		const rounds = 3
		s.RunGuest(0, func(g *kvm.GuestCtx) {
			for i := 0; i < rounds; i++ {
				if i == rounds-1 {
					s.M.Trace.Reset()
				}
				b0, b1 := c0.Cycles(), c1.Cycles()
				g.SendIPI(1, 3)
				s.Host.Service(c1)
				cycles = (c0.Cycles() - b0) + (c1.Cycles() - b1)
			}
		})
		traps = s.M.Trace.Total()
	case VirtualEOI:
		s.RunGuest(0, func(g *kvm.GuestCtx) {
			c := g.CPU
			// Pend and acknowledge a virtual interrupt, then measure the
			// completion alone (hardware-assisted, no trap in any config).
			c.SetReg(arm.ICH_LR0_EL2, arm.MakeLR(40, -1))
			got := c.MRS(arm.ICC_IAR1_EL1)
			s.M.Trace.Reset()
			before := c.Cycles()
			c.MSR(arm.ICC_EOIR1_EL1, got)
			cycles = c.Cycles() - before
		})
		traps = s.M.Trace.Total()
	}
	return cycles, traps
}

func runMicroX86(p platform.Platform, op MicroOp) (cycles, traps uint64) {
	s := p.X86()
	switch op {
	case Hypercall, DeviceIO:
		s.RunGuest(0, func(g *x86.GuestCtx) {
			f := g.Hypercall
			if op == DeviceIO {
				f = func() { g.DeviceRead(0) }
			}
			f()
			s.Trace.Reset()
			before := g.CPU.Cycles()
			f()
			cycles = g.CPU.Cycles() - before
		})
		traps = s.Trace.Total()
	case VirtualIPI:
		c0, c1 := s.CPUs[0], s.CPUs[1]
		p.PreparePeer()
		const rounds = 3
		s.RunGuest(0, func(g *x86.GuestCtx) {
			for i := 0; i < rounds; i++ {
				if i == rounds-1 {
					s.Trace.Reset()
				}
				b0, b1 := c0.Cycles(), c1.Cycles()
				g.SendIPI(1, 0x41)
				s.Service(1)
				cycles = (c0.Cycles() - b0) + (c1.Cycles() - b1)
			}
		})
		traps = s.Trace.Total()
	case VirtualEOI:
		s.RunGuest(0, func(g *x86.GuestCtx) {
			before := g.CPU.Cycles()
			g.CPU.EOI()
			cycles = g.CPU.Cycles() - before
		})
		traps = 0
	}
	return cycles, traps
}

// RunApp runs one application profile on configuration id and returns its
// overhead normalized to native execution (Figure 2's y axis) and the raw
// result.
func RunApp(id ConfigID, p workload.Profile) (overhead float64, res workload.Result) {
	if !id.IsARM() {
		// The x86 servers run the workloads roughly three times faster
		// than the ARM servers (Section 7.2); external event rates are
		// set by the clients and the network and do not scale.
		p = p.Scaled(3)
	}
	native := &workload.Native{}
	nres := p.Run(native, native, native)

	plat := build(id, 2)
	plat.PreparePeer()
	plat.RunGuest(0, func(g platform.Guest) {
		res = p.Run(g, g, plat)
	})
	overhead = float64(res.Cycles) / float64(nres.Cycles)
	return overhead, res
}
