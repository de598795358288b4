package platform

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"reflect"
	"sort"
	"testing"

	"github.com/nevesim/neve/internal/workload"
)

// stateDigest hashes the complete state a Snapshot captures: every CPU's
// mode and register file, every saved Context, the distributor, timers,
// the TLB, the hypervisor/VM/vCPU software state, and the contents of
// every populated guest memory page. The walk is reflective, so a field
// added to any checkpoint is digested without touching this test.
//
// Pointers are followed by content, never by address, so two separately
// built platforms digest equal when their states are equal. Live objects
// a checkpoint references for identity only (the VIRQ sink a CPU points
// at, the hypervisor a pending forward targets) are digested by their
// stable names. Closures (guest IRQ handlers) and the host-side JIT taps
// are skipped.
func stateDigest(cp *Checkpoint) string {
	d := &digester{h: sha256.New(), seen: map[uintptr]int{}}
	d.value(reflect.ValueOf(cp).Elem())
	return fmt.Sprintf("%x", d.h.Sum(nil))
}

type digester struct {
	h    hash.Hash
	seen map[uintptr]int
	buf  [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			d.u64(1)
		} else {
			d.u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.u64(uint64(v.Float() * 1e9))
	case reflect.String:
		d.str(v.String())
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		// Closures and channels carry no comparable machine state.
	case reflect.Array:
		if v.Type().Elem().Kind() == reflect.Uint8 && v.CanAddr() {
			d.h.Write(v.Bytes())
			return
		}
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Slice:
		if v.IsNil() {
			d.u64(^uint64(0))
			return
		}
		d.u64(uint64(v.Len()))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			d.h.Write(v.Bytes())
			return
		}
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		d.u64(uint64(len(keys)))
		for _, k := range keys {
			d.value(k)
			d.value(v.MapIndex(k))
		}
	case reflect.Interface:
		if v.IsNil() {
			d.u64(0)
			return
		}
		d.str(v.Elem().Type().String())
		d.value(v.Elem())
	case reflect.Pointer:
		if v.IsNil() {
			d.u64(0)
			return
		}
		if d.identity(v) {
			return
		}
		if n, ok := d.seen[v.Pointer()]; ok {
			d.u64(uint64(n))
			return
		}
		d.seen[v.Pointer()] = len(d.seen) + 1
		d.u64(1)
		d.value(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.str(v.Type().Field(i).Name)
			d.value(v.Field(i))
		}
	default:
		panic(fmt.Sprintf("stateDigest: unhandled kind %s", v.Kind()))
	}
}

// identity digests pointers to live model objects by name instead of
// content: a checkpoint holds them as references, and their contents are
// covered by the checkpoint entries of their own.
func (d *digester) identity(v reflect.Value) bool {
	e := v.Elem()
	switch v.Type().String() {
	case "*kvm.GuestCtx":
		d.str("sink")
		d.identity(e.FieldByName("VCPU"))
		return true
	case "*kvm.VCPU":
		d.str("vcpu " + e.FieldByName("VM").Elem().FieldByName("Name").String())
		d.u64(uint64(e.FieldByName("ID").Int()))
		return true
	case "*arm.CPU":
		d.str("cpu")
		d.u64(uint64(e.FieldByName("ID").Int()))
		return true
	case "*kvm.Hypervisor":
		d.str("hyp " + e.FieldByName("Cfg").FieldByName("Name").String())
		return true
	case "*jit.FileTap", "*jit.Engine":
		// Host-side JIT bookkeeping, present only with the JIT on:
		// digested like the nil it is with the JIT off.
		d.u64(0)
		return true
	}
	return false
}

// oracleRun runs prof on the innermost guest of a fresh platform built from
// spec and returns the digest of the complete state it ends in, plus the
// JIT dispatch counters.
func oracleRun(spec Spec, prof workload.Profile) (string, string) {
	p := MustBuild(spec)
	p.PreparePeer()
	p.RunGuest(0, func(g Guest) { prof.Run(g, g, p) })
	return stateDigest(p.Snapshot()), fmt.Sprintf("%+v", p.JITStats())
}

// TestJITFullStateOracle is the trace-JIT's full-state differential: for
// every ARM registry configuration and every workload the equivalence and
// Figure 2 sweeps run, a JIT-on run and a JIT-off run must end in exactly
// the same machine state — not just the same reported numbers. A tracked
// access that escaped its tap (a read a super-op never guarded, a write it
// never restores) shows up here even when no report would notice.
//
// The recursive configurations trap two orders of magnitude more per
// operation, so they run every profile cut to its first few operations.
func TestJITFullStateOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-state JIT oracle skipped in -short mode")
	}
	profs := append([]workload.Profile{equivProfile()}, workload.Profiles()...)
	for _, spec := range Registry() {
		if spec.Arch != ARM || spec.CPUs > 2 {
			continue
		}
		spec := spec
		spec.CPUs = 2
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, prof := range profs {
				if spec.Nesting >= 3 && prof.Ops > 4 {
					prof.Ops = 4
				}
				off := spec
				off.JITOff = true
				want, _ := oracleRun(off, prof)
				got, js := oracleRun(spec, prof)
				if got != want {
					t.Errorf("%s: JIT-on state %s differs from JIT-off state %s (jit %s)", prof.Name, got[:12], want[:12], js)
				}
			}
		})
	}
}
