// Package mem models the physical memory of a simulated machine.
//
// Memory is a sparse collection of 4 KiB pages addressed by physical
// address. It backs guest RAM, all page tables walked by the MMU model, and
// the NEVE deferred access page (VNCR_EL2.BADDR), so a "register access
// rewritten to a memory access" (paper Section 6.1) really lands in the
// same storage a hypervisor would read back later.
//
// Storage is a two-level page directory (array of arrays) indexed by page
// number, fronted by a last-page cache: the simulators' access streams are
// heavily page-local (descriptor walks, the VNCR page, guest RAM buffers),
// so most accesses resolve with one comparison and no map hashing. Pages
// above the directory's reach (≥ 4 GiB, which only synthetic test
// addresses hit) fall back to a sparse map.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageShift is log2 of the page size. The paper's systems all use 4 KiB
// granules; NEVE mandates a page-aligned VNCR_EL2.BADDR (Section 6.3).
const PageShift = 12

// PageSize is the size of a physical page in bytes.
const PageSize = 1 << PageShift

// PageMask masks the offset within a page.
const PageMask = PageSize - 1

// Two-level directory geometry: a leaf covers dirLeafPages contiguous
// pages (8 KiB of pointers = 4 MiB of address space), and the top level
// grows on demand up to dirMaxPages (4 GiB of address space, 8 KiB of top
// pointers when fully grown).
const (
	dirLeafBits  = 10
	dirLeafPages = 1 << dirLeafBits
	dirLeafMask  = dirLeafPages - 1
	dirMaxPages  = 1 << 20 // pages below 4 GiB live in the directory
)

// Addr is a physical address. Distinct levels of the nested stack use
// distinct meanings (L0 machine address, L1 "physical" address, ...); the
// MMU model translates between them.
type Addr uint64

// PageBase returns the address of the page containing a.
func (a Addr) PageBase() Addr { return a &^ Addr(PageMask) }

// PageOff returns the offset of a within its page.
func (a Addr) PageOff() uint64 { return uint64(a) & PageMask }

type page = [PageSize]byte

type dirLeaf = [dirLeafPages]*page

// sharedLeaf mirrors a dirLeaf with copy-on-write shared bits: a true
// entry marks a page whose storage is owned jointly with a Snapshot and
// must be copied before its first write.
type sharedLeaf = [dirLeafPages]bool

// Memory is a sparse physical memory. The zero value is not usable; call
// New.
type Memory struct {
	// lastBase/lastPage cache the most recently touched page; lastPage
	// is nil when the cache is empty. lastShared caches the page's
	// copy-on-write shared bit (always false while cow is off).
	lastBase   Addr
	lastPage   *page
	lastShared bool
	// cow is set by the first Snapshot and enables shared-bit tracking
	// on the access paths.
	cow bool
	// dir is the two-level page directory for pages below dirMaxPages.
	dir []*dirLeaf
	// shared holds the copy-on-write bits, parallel to dir (nil leaves
	// mean all-unshared).
	shared []*sharedLeaf
	// high holds the (test-only) pages at or above dirMaxPages.
	high map[Addr]*page
	// sharedHigh holds the copy-on-write bits of high pages.
	sharedHigh map[Addr]bool
	// populated counts allocated pages across dir and high.
	populated int
	// allocNext is the bump pointer used by AllocPage.
	allocNext Addr
	// limit, if nonzero, bounds the highest addressable byte.
	limit Addr
	// concurrent disables the last-page cache: the SMP epoch engine sets
	// it while vCPU segments run on parallel goroutines, because the cache
	// is written on every access (reads included) and would be a data race
	// between cores. Contents are unaffected — the cache is purely a
	// lookup shortcut — so sequential and concurrent runs stay
	// byte-identical.
	concurrent bool

	// Tap, when non-nil, observes every access (reads included) and every
	// page allocation. The trace-JIT layer arms it while recording a trap
	// sequence: memory contents are outside the replay guard, so any
	// memory traffic makes the recording non-promotable. Nil in all
	// normal runs; the access paths pay one nil check.
	Tap func()
}

// New returns an empty memory. If limit is nonzero, accesses at or above
// limit fail, modeling a machine with that much installed RAM.
func New(limit Addr) *Memory {
	return &Memory{limit: limit}
}

// ErrBadAddress reports an access outside installed memory.
type ErrBadAddress struct {
	Addr Addr
	Size int
}

func (e *ErrBadAddress) Error() string {
	return fmt.Sprintf("physical access of %d bytes at %#x outside installed memory", e.Size, uint64(e.Addr))
}

func (m *Memory) check(a Addr, size int) error {
	if size <= 0 || size > PageSize {
		return &ErrBadAddress{Addr: a, Size: size}
	}
	end := uint64(a) + uint64(size)
	if m.limit != 0 && end > uint64(m.limit) {
		return &ErrBadAddress{Addr: a, Size: size}
	}
	if a.PageBase() != Addr(end-1).PageBase() {
		// Accesses never straddle a page in the modeled software: system
		// register slots in the VNCR page are naturally aligned, and the
		// page table walkers issue aligned 8-byte descriptor accesses.
		return &ErrBadAddress{Addr: a, Size: size}
	}
	return nil
}

// SetConcurrent toggles concurrent mode (see the concurrent field). The
// cache is dropped on every transition so a stale entry never survives
// into either mode.
func (m *Memory) SetConcurrent(on bool) {
	m.concurrent = on
	m.lastBase, m.lastPage, m.lastShared = 0, nil, false
}

// CoWActive reports whether a Snapshot holds shared pages: the first write
// to such a page mutates directory structure (unshare), which is not safe
// from parallel goroutines. The SMP epoch engine forces sequential mode
// while this is true.
func (m *Memory) CoWActive() bool { return m.cow }

func (m *Memory) page(a Addr, allocate bool) *page {
	p, _ := m.pageShared(a, allocate)
	return p
}

// pageShared resolves the page containing a and its copy-on-write shared
// bit. In concurrent mode the last-page cache is neither consulted nor
// updated.
func (m *Memory) pageShared(a Addr, allocate bool) (*page, bool) {
	base := a.PageBase()
	if !m.concurrent && m.lastPage != nil && m.lastBase == base {
		return m.lastPage, m.lastShared
	}
	var p *page
	shared := false
	pn := uint64(base) >> PageShift
	if pn < dirMaxPages {
		li, pi := pn>>dirLeafBits, pn&dirLeafMask
		var leaf *dirLeaf
		if int(li) < len(m.dir) {
			leaf = m.dir[li]
		}
		if leaf == nil {
			if !allocate {
				return nil, false
			}
			for int(li) >= len(m.dir) {
				m.dir = append(m.dir, nil)
			}
			leaf = new(dirLeaf)
			m.dir[li] = leaf
		}
		p = leaf[pi]
		if p == nil {
			if !allocate {
				return nil, false
			}
			p = new(page)
			leaf[pi] = p
			m.populated++
		} else if m.cow && int(li) < len(m.shared) && m.shared[li] != nil {
			shared = m.shared[li][pi]
		}
	} else {
		p = m.high[base]
		if p == nil {
			if !allocate {
				return nil, false
			}
			if m.high == nil {
				m.high = make(map[Addr]*page)
			}
			p = new(page)
			m.high[base] = p
			m.populated++
		} else if m.cow {
			shared = m.sharedHigh[base]
		}
	}
	if !m.concurrent {
		m.lastBase, m.lastPage, m.lastShared = base, p, shared
	}
	return p, shared
}

// unshare copies the shared page at base into storage this Memory owns
// alone, clears its shared bit, and returns the private copy. Called on
// the first write to a page a Snapshot still references.
func (m *Memory) unshare(base Addr, old *page) *page {
	p := new(page)
	*p = *old
	pn := uint64(base) >> PageShift
	if pn < dirMaxPages {
		li, pi := pn>>dirLeafBits, pn&dirLeafMask
		m.dir[li][pi] = p
		m.shared[li][pi] = false
	} else {
		m.high[base] = p
		delete(m.sharedHigh, base)
	}
	if !m.concurrent {
		m.lastBase, m.lastPage, m.lastShared = base, p, false
	}
	return p
}

// Read64 reads a naturally aligned 64-bit little-endian value.
func (m *Memory) Read64(a Addr) (uint64, error) {
	if m.Tap != nil {
		m.Tap()
	}
	if err := m.check(a, 8); err != nil {
		return 0, err
	}
	p := m.page(a, false)
	if p == nil {
		return 0, nil // unwritten memory reads as zero
	}
	return binary.LittleEndian.Uint64(p[a.PageOff():]), nil
}

// Write64 writes a naturally aligned 64-bit little-endian value.
func (m *Memory) Write64(a Addr, v uint64) error {
	if m.Tap != nil {
		m.Tap()
	}
	if err := m.check(a, 8); err != nil {
		return err
	}
	p, shared := m.pageShared(a, true)
	if shared {
		p = m.unshare(a.PageBase(), p)
	}
	binary.LittleEndian.PutUint64(p[a.PageOff():], v)
	return nil
}

// Read32 reads a naturally aligned 32-bit little-endian value.
func (m *Memory) Read32(a Addr) (uint32, error) {
	if m.Tap != nil {
		m.Tap()
	}
	if err := m.check(a, 4); err != nil {
		return 0, err
	}
	p := m.page(a, false)
	if p == nil {
		return 0, nil
	}
	return binary.LittleEndian.Uint32(p[a.PageOff():]), nil
}

// Write32 writes a naturally aligned 32-bit little-endian value.
func (m *Memory) Write32(a Addr, v uint32) error {
	if m.Tap != nil {
		m.Tap()
	}
	if err := m.check(a, 4); err != nil {
		return err
	}
	p, shared := m.pageShared(a, true)
	if shared {
		p = m.unshare(a.PageBase(), p)
	}
	binary.LittleEndian.PutUint32(p[a.PageOff():], v)
	return nil
}

// MustRead64 is Read64 panicking on error; used by modeled hardware paths
// (hardware never sees an invalid physical address it generated itself).
func (m *Memory) MustRead64(a Addr) uint64 {
	v, err := m.Read64(a)
	if err != nil {
		panic(err)
	}
	return v
}

// MustWrite64 is Write64 panicking on error.
func (m *Memory) MustWrite64(a Addr, v uint64) {
	if err := m.Write64(a, v); err != nil {
		panic(err)
	}
}

// WriteWords stores vs as consecutive 64-bit little-endian values starting
// at a, leaving the same bytes as a MustWrite64 loop over the run. The run
// must lie within one page and, like MustWrite64, a run outside installed
// memory or straddling a page panics with *ErrBadAddress. A whole run
// costs one Tap call, one check and one page lookup (with its
// copy-on-write unshare), which is what makes table builders that write a
// leaf table's descriptors in one call cheap. An empty run is a no-op.
func (m *Memory) WriteWords(a Addr, vs []uint64) {
	if len(vs) == 0 {
		return
	}
	if m.Tap != nil {
		m.Tap()
	}
	if err := m.check(a, 8*len(vs)); err != nil {
		panic(err)
	}
	p, shared := m.pageShared(a, true)
	if shared {
		p = m.unshare(a.PageBase(), p)
	}
	b := p[a.PageOff():]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
}

// AllocPage returns the base address of a fresh, zeroed page. Pages are
// handed out from a bump allocator starting at 1 MiB (leaving low memory
// for fixed device windows in the machine model).
func (m *Memory) AllocPage() Addr {
	if m.Tap != nil {
		m.Tap()
	}
	if m.allocNext == 0 {
		m.allocNext = 1 << 20
	}
	for {
		a := m.allocNext
		m.allocNext += PageSize
		if m.limit != 0 && uint64(a)+PageSize > uint64(m.limit) {
			panic("mem: out of physical memory")
		}
		if m.page(a, false) != nil {
			continue
		}
		m.page(a, true)
		return a
	}
}

// ZeroPage clears the page containing a.
func (m *Memory) ZeroPage(a Addr) {
	if m.Tap != nil {
		m.Tap()
	}
	if p, shared := m.pageShared(a, false); p != nil {
		if shared {
			p = m.unshare(a.PageBase(), p)
		}
		*p = page{}
	}
}

// PopulatedPages returns the base addresses of all written pages in
// ascending address order, for tests, diagnostics, and snapshot capture.
// The order is deterministic regardless of allocation history: directory
// pages come out of an ascending index walk, and the (test-only) high
// pages are sorted before being appended.
func (m *Memory) PopulatedPages() []Addr {
	out := make([]Addr, 0, m.populated)
	for li, leaf := range m.dir {
		if leaf == nil {
			continue
		}
		for pi, p := range leaf {
			if p != nil {
				out = append(out, Addr(uint64(li)<<dirLeafBits+uint64(pi))<<PageShift)
			}
		}
	}
	if len(m.high) > 0 {
		highStart := len(out)
		for a := range m.high {
			out = append(out, a)
		}
		high := out[highStart:]
		sort.Slice(high, func(i, j int) bool { return high[i] < high[j] })
	}
	return out
}
