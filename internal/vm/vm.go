// Package vm implements the simulator's virtual memory: a 4 KB page
// table with forward (TLB) and reverse (RTLB) translation, and a simple
// virtual-address-space allocator used by workloads to place their data
// structures.
//
// The paper does not model TLB misses (footnote 8): every translation is
// charged as a TLB hit by the energy model. The page table here still
// tracks real mappings so that the stash's VP-map (forward translation on
// stash misses and writebacks, reverse translation on remote requests)
// operates on genuine virtual/physical pairs.
package vm

import (
	"fmt"

	"stash/internal/memdata"
)

// PageBytes is the page size.
const PageBytes = 4096

// PageOf returns the page-aligned base of a virtual address.
func PageOf(v memdata.VAddr) memdata.VAddr { return v &^ (PageBytes - 1) }

// PPageOf returns the page-aligned base of a physical address.
func PPageOf(p memdata.PAddr) memdata.PAddr { return p &^ (PageBytes - 1) }

// virtBase and frameBase anchor the allocator: virtual allocations
// start above the null page, physical frames at a non-identity offset
// so reverse translation is a real computation. Both being non-zero is
// what lets the page tables use 0 as their unmapped sentinel.
const (
	virtBase  memdata.VAddr = 0x1000_0000
	frameBase memdata.PAddr = 0x0020_0000
)

// AddressSpace is a process address space: an allocator plus a page table.
//
// Both translation directions are dense slices indexed by page number
// relative to the allocator bases — the allocator only ever hands out
// pages upward from virtBase/frameBase, so the tables stay compact and
// a translation is two bounds checks and an indexed load instead of a
// map lookup on every memory access.
type AddressSpace struct {
	nextVirt  memdata.VAddr
	nextFrame memdata.PAddr
	vToP      []memdata.PAddr // index (vpage-virtBase)/PageBytes; 0 = unmapped
	pToV      []memdata.VAddr // index (ppage-frameBase)/PageBytes; 0 = unmapped
	mapped    int
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{
		nextVirt:  virtBase,
		nextFrame: frameBase,
	}
}

// Alloc reserves size bytes of virtual address space, maps every page it
// covers, and returns the (line-aligned) base virtual address.
func (as *AddressSpace) Alloc(size int) memdata.VAddr {
	if size <= 0 {
		panic("vm: Alloc of non-positive size")
	}
	base := as.nextVirt
	// Keep allocations line-aligned and separated by at least a line so
	// distinct arrays never share a cache line (the paper's chunked
	// writeback requires chunk-aligned structures, Section 4.2).
	end := base + memdata.VAddr(size)
	as.nextVirt = (end + 2*memdata.LineBytes - 1) &^ (memdata.LineBytes - 1)
	for p := PageOf(base); p < end; p += PageBytes {
		as.ensureMapped(p)
	}
	return base
}

func (as *AddressSpace) ensureMapped(vpage memdata.VAddr) {
	idx := int((vpage - virtBase) / PageBytes)
	for idx >= len(as.vToP) {
		as.vToP = append(as.vToP, 0)
	}
	if as.vToP[idx] != 0 {
		return
	}
	frame := as.nextFrame
	as.nextFrame += PageBytes
	as.vToP[idx] = frame
	as.mapped++
	pidx := int((frame - frameBase) / PageBytes)
	for pidx >= len(as.pToV) {
		as.pToV = append(as.pToV, 0)
	}
	as.pToV[pidx] = vpage
}

// Translate returns the physical address of virtual address v.
// The page must have been allocated; a fault panics, because workloads
// only ever touch memory they allocated.
func (as *AddressSpace) Translate(v memdata.VAddr) memdata.PAddr {
	if v >= virtBase {
		idx := int((v - virtBase) / PageBytes)
		if idx < len(as.vToP) {
			if frame := as.vToP[idx]; frame != 0 {
				return frame + memdata.PAddr(v&(PageBytes-1))
			}
		}
	}
	panic(fmt.Sprintf("vm: page fault at %#x", uint64(v)))
}

// Reverse returns the virtual address mapped to physical address p and
// whether such a mapping exists.
func (as *AddressSpace) Reverse(p memdata.PAddr) (memdata.VAddr, bool) {
	if p < frameBase {
		return 0, false
	}
	idx := int((p - frameBase) / PageBytes)
	if idx >= len(as.pToV) {
		return 0, false
	}
	vpage := as.pToV[idx]
	if vpage == 0 {
		return 0, false
	}
	return vpage + memdata.VAddr(p&(PageBytes-1)), true
}

// Mapped reports whether virtual address v has a page mapping.
func (as *AddressSpace) Mapped(v memdata.VAddr) bool {
	if v < virtBase {
		return false
	}
	idx := int((v - virtBase) / PageBytes)
	return idx < len(as.vToP) && as.vToP[idx] != 0
}

// PageCount reports the number of mapped pages. It is a test hook:
// only tests call it.
func (as *AddressSpace) PageCount() int { return as.mapped }
