package kvm

import (
	"testing"

	"github.com/nevesim/neve/internal/arm"
	"github.com/nevesim/neve/internal/core"
	"github.com/nevesim/neve/internal/mem"
)

func TestOwnToMachineChains(t *testing.T) {
	s := NewRecursiveStack(StackOptions{})
	l1, l2 := s.VM, s.NestedVM
	gh1, gh2 := s.GuestHyp, s.GuestHyp2

	// Host: identity.
	if a, ok := s.Host.ownToMachine(0x12345); !ok || a != 0x12345 {
		t.Errorf("host ownToMachine = %#x, %v", uint64(a), ok)
	}
	// gh1: linear through the L1 VM's RAM window.
	in := GuestRAMIPA + mem.Addr(0x1000)
	want := l1.RAMBase + 0x1000
	if a, ok := gh1.ownToMachine(in); !ok || a != want {
		t.Errorf("gh1 ownToMachine(%#x) = %#x, want %#x", uint64(in), uint64(a), uint64(want))
	}
	// gh2: two hops.
	want2 := l1.RAMBase + (l2.RAMBase - GuestRAMIPA) + 0x2000
	if a, ok := gh2.ownToMachine(GuestRAMIPA + 0x2000); !ok || a != want2 {
		t.Errorf("gh2 ownToMachine = %#x, want %#x", uint64(a), uint64(want2))
	}
	// Out of range fails.
	if _, ok := gh1.ownToMachine(0x1000); ok {
		t.Error("address below RAM window translated")
	}
	if _, ok := gh1.ownToMachine(GuestRAMIPA + mem.Addr(l1.RAMSize)); ok {
		t.Error("address past RAM window translated")
	}
}

func TestGuestBackingReadsWriteThroughChain(t *testing.T) {
	s := NewNestedStack(StackOptions{})
	gh := s.GuestHyp
	b := gh.backing()
	p := b.AllocPage()
	b.MustWrite64(p+8, 0xabcd)
	if got := b.MustRead64(p + 8); got != 0xabcd {
		t.Fatalf("backing read = %#x", got)
	}
	// The write must be visible at the translated machine address.
	ma, ok := gh.ownToMachine(p + 8)
	if !ok {
		t.Fatal("backing page not translatable")
	}
	if got := s.M.Mem.MustRead64(ma); got != 0xabcd {
		t.Fatalf("machine view = %#x", got)
	}
}

func TestVMVTTBRStable(t *testing.T) {
	s := NewVMStack(StackOptions{})
	v1 := s.Host.vmVTTBR(s.M.CPUs[0], s.VM)
	v2 := s.Host.vmVTTBR(s.M.CPUs[0], s.VM)
	if v1 != v2 || v1 == 0 {
		t.Fatalf("vmVTTBR unstable: %#x vs %#x", v1, v2)
	}
}

func TestFixVMS2FaultRepairsUnmappedPage(t *testing.T) {
	s := NewVMStack(StackOptions{})
	s.RunGuest(0, func(g *GuestCtx) {
		// Touch RAM to force table population, then unmap a page behind
		// the hypervisor's back and touch it again: the fault path must
		// repair it.
		g.RAMWrite64(0x3000, 7)
		s.VM.s2.Unmap(GuestRAMIPA+0x3000, mem.PageSize)
		s.M.S2.TLB.FlushAll()
		if got := g.RAMRead64(0x3000); got != 7 {
			t.Fatalf("read after unmap = %d", got)
		}
	})
}

func TestVNCRTranslateBounds(t *testing.T) {
	s := NewNestedStack(StackOptions{GuestNEVE: true})
	lv := s.VM.VCPUs[0]
	// A valid in-RAM VNCR translates to the linear machine address.
	lv.VEL2.Set(arm.VNCR_EL2, core.MakeVNCR(GuestRAMIPA+0x5000, true))
	got, ok := s.Host.vncrTranslate(lv)
	if !ok || got != s.VM.RAMBase+0x5000 {
		t.Fatalf("vncrTranslate = %#x, %v", uint64(got), ok)
	}
	// Disabled or out-of-range VNCR does not translate.
	lv.VEL2.Set(arm.VNCR_EL2, core.MakeVNCR(GuestRAMIPA+0x5000, false))
	if _, ok := s.Host.vncrTranslate(lv); ok {
		t.Error("disabled VNCR translated")
	}
	lv.VEL2.Set(arm.VNCR_EL2, core.MakeVNCR(0x1000, true))
	if _, ok := s.Host.vncrTranslate(lv); ok {
		t.Error("out-of-range VNCR translated")
	}
}

func TestShadowFaultRejectsUnmappedGuestIPA(t *testing.T) {
	s := NewNestedStack(StackOptions{})
	lv := s.VM.VCPUs[0]
	s.RunGuest(0, func(g *GuestCtx) {
		g.Hypercall() // ensure vEL2 state (VTTBR) is live
	})
	// An IPA the guest hypervisor's Stage-2 does not map cannot be
	// shadow-repaired; the fault must be forwarded instead.
	e := &arm.Exception{EC: arm.ECDAbtLow, FaultIPA: 0x7000_0000}
	if s.Host.fixShadowS2Fault(s.M.CPUs[0], lv, e) {
		t.Error("unmapped nested IPA shadow-repaired")
	}
}

func TestDeferredPagesDistinctPerVCPU(t *testing.T) {
	s := NewNestedStack(StackOptions{CPUs: 2, GuestNEVE: true})
	p0 := s.VM.VCPUs[0].Page.Base
	p1 := s.VM.VCPUs[1].Page.Base
	if p0 == 0 || p1 == 0 {
		t.Fatal("deferred access pages not allocated")
	}
	if p0 == p1 {
		t.Fatal("vCPUs share a deferred access page")
	}
	if p0%mem.PageSize != 0 || p1%mem.PageSize != 0 {
		t.Fatal("deferred access pages not page aligned (Section 6.3)")
	}
}

func TestNestedVMRAMCarvedFromL1(t *testing.T) {
	s := NewNestedStack(StackOptions{})
	l2 := s.NestedVM
	if l2.RAMBase < GuestRAMIPA || uint64(l2.RAMBase-GuestRAMIPA)+l2.RAMSize > s.VM.RAMSize {
		t.Fatalf("nested RAM window [%#x,+%#x) outside the L1 VM's RAM",
			uint64(l2.RAMBase), l2.RAMSize)
	}
}
