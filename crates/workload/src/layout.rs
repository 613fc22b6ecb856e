//! Physical-address layout of the simulated machine.
//!
//! Each guest VM (or the single OS image) owns a fixed 1 GB span of
//! physical memory, subdivided into code, OS-data, shared-heap, and
//! per-VCPU private regions. Above all VM spans sit two machine-owned
//! regions: the *scratchpad* used by the mode-transition state machine
//! to stage VCPU state (paper §3.4.3), and the backing store of the
//! Protection Assistance Table (paper §3.4.1).
//!
//! The layout is pure address arithmetic — defining it in one place
//! lets the workload generator, the PAT initialization, and the
//! transition engine agree on which pages belong to whom.

use mmm_types::ids::PAGE_BYTES;
use mmm_types::{LineAddr, PageAddr, PhysAddr, VcpuId, VmId};
use std::ops::Range;

/// Span of physical memory owned by one VM (1 GB).
pub const VM_SPAN: u64 = 1 << 30;

/// Maximum number of VMs the layout supports.
pub const MAX_VMS: u64 = 32;

/// Base of the machine-owned scratchpad region (above all VM spans).
pub const SCRATCHPAD_BASE: u64 = MAX_VMS * VM_SPAN;

/// Scratchpad bytes reserved per VCPU (enough for vocal + mute copies
/// of the ~2.3 KB architected state, rounded to pages).
pub const SCRATCHPAD_PER_VCPU: u64 = 2 * PAGE_BYTES;

/// Base of the PAT backing store.
pub const PAT_BASE: u64 = SCRATCHPAD_BASE + (1 << 26);

/// Bytes of code region per VM (16 MB).
const CODE_BYTES: u64 = 16 << 20;
/// Offset and size of the OS-data region within a VM span (32 MB at 64 MB).
const OS_OFFSET: u64 = 64 << 20;
const OS_BYTES: u64 = 32 << 20;
/// Offset and size of the shared heap within a VM span (64 MB at 128 MB).
const SHARED_OFFSET: u64 = 128 << 20;
const SHARED_BYTES: u64 = 64 << 20;
/// Offset of per-VCPU private heaps (32 MB each, from 256 MB).
const PRIVATE_OFFSET: u64 = 256 << 20;
const PRIVATE_BYTES: u64 = 32 << 20;

/// Private heaps per VM span (24). A VCPU's system-wide id picks its
/// heap, so a machine runs at most this many VCPUs.
pub const PRIVATE_HEAPS: usize = ((VM_SPAN - PRIVATE_OFFSET) / PRIVATE_BYTES) as usize;

/// Address-layout oracle. Stateless; all methods are pure arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AddressLayout;

impl AddressLayout {
    /// Creates the layout oracle.
    pub fn new() -> Self {
        AddressLayout
    }

    /// Base byte address of a VM's span.
    ///
    /// # Panics
    ///
    /// Panics if `vm` exceeds [`MAX_VMS`].
    pub fn vm_base(&self, vm: VmId) -> PhysAddr {
        assert!((vm.index() as u64) < MAX_VMS, "vm id out of range");
        PhysAddr(vm.index() as u64 * VM_SPAN)
    }

    /// The VM that owns a physical address, if it falls in a VM span.
    pub fn vm_of(&self, addr: PhysAddr) -> Option<VmId> {
        if addr.0 < SCRATCHPAD_BASE {
            Some(VmId::from_index((addr.0 / VM_SPAN) as usize))
        } else {
            None
        }
    }

    /// Full page range of a VM span (for PAT initialization).
    pub fn vm_pages(&self, vm: VmId) -> Range<u64> {
        let base = self.vm_base(vm).0;
        (base / PAGE_BYTES)..((base + VM_SPAN) / PAGE_BYTES)
    }

    /// The `idx`-th line of a VM's code region (wraps within region).
    pub fn code_line(&self, vm: VmId, idx: u64) -> LineAddr {
        let base = self.vm_base(vm).0;
        PhysAddr(base + (idx * 64) % CODE_BYTES).line()
    }

    /// The `idx`-th line of a VM's OS-data region (kernel/VMM
    /// structures, shared by all VCPUs of the VM).
    pub fn os_line(&self, vm: VmId, idx: u64) -> LineAddr {
        let base = self.vm_base(vm).0 + OS_OFFSET;
        PhysAddr(base + (idx * 64) % OS_BYTES).line()
    }

    /// The `idx`-th line of a VM's shared application heap.
    pub fn shared_line(&self, vm: VmId, idx: u64) -> LineAddr {
        let base = self.vm_base(vm).0 + SHARED_OFFSET;
        PhysAddr(base + (idx * 64) % SHARED_BYTES).line()
    }

    /// The `idx`-th line of a VCPU's private heap within its VM.
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` has no heap in the VM span (its index is
    /// [`PRIVATE_HEAPS`] or more).
    pub fn private_line(&self, vm: VmId, vcpu: VcpuId, idx: u64) -> LineAddr {
        assert!(vcpu.index() < PRIVATE_HEAPS, "too many VCPUs for VM span");
        let off = PRIVATE_OFFSET + vcpu.index() as u64 * PRIVATE_BYTES;
        let base = self.vm_base(vm).0 + off;
        PhysAddr(base + (idx * 64) % PRIVATE_BYTES).line()
    }

    /// Scratchpad line range used to stage one VCPU's architected
    /// state during mode transitions. `copy` 0 is the vocal's save
    /// area, `copy` 1 the mute's redundant copy (paper §3.4.3).
    pub fn scratchpad_lines(&self, vcpu: VcpuId, copy: u8, state_bytes: u32) -> Vec<LineAddr> {
        assert!(copy < 2, "scratchpad holds two copies");
        let base =
            SCRATCHPAD_BASE + vcpu.index() as u64 * SCRATCHPAD_PER_VCPU + copy as u64 * PAGE_BYTES;
        let lines = (state_bytes as u64).div_ceil(64);
        assert!(lines * 64 <= PAGE_BYTES, "VCPU state exceeds a page");
        (0..lines).map(|i| PhysAddr(base + i * 64).line()).collect()
    }

    /// Line of the PAT backing store holding the protection bit for
    /// `page`. One 64-byte PAT line covers 512 pages (paper §3.4.1:
    /// one bit per 8 KB page).
    pub fn pat_line_for(&self, page: PageAddr) -> LineAddr {
        PhysAddr(PAT_BASE + (page.0 / 512) * 64).line()
    }

    /// Whether an address belongs to machine-owned space (scratchpad or
    /// PAT) rather than any VM.
    pub fn is_machine_owned(&self, addr: PhysAddr) -> bool {
        addr.0 >= SCRATCHPAD_BASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_spans_are_disjoint() {
        let l = AddressLayout::new();
        let a = l.vm_base(VmId(0)).0;
        let b = l.vm_base(VmId(1)).0;
        assert_eq!(b - a, VM_SPAN);
        assert_eq!(l.vm_of(PhysAddr(a)), Some(VmId(0)));
        assert_eq!(l.vm_of(PhysAddr(b - 1)), Some(VmId(0)));
        assert_eq!(l.vm_of(PhysAddr(b)), Some(VmId(1)));
    }

    #[test]
    fn machine_regions_are_outside_vms() {
        let l = AddressLayout::new();
        assert!(l.is_machine_owned(PhysAddr(SCRATCHPAD_BASE)));
        assert!(l.is_machine_owned(PhysAddr(PAT_BASE)));
        assert_eq!(l.vm_of(PhysAddr(SCRATCHPAD_BASE)), None);
    }

    #[test]
    fn regions_within_a_vm_do_not_overlap() {
        let l = AddressLayout::new();
        let vm = VmId(2);
        let code = l.code_line(vm, 0).base().0;
        let os = l.os_line(vm, 0).base().0;
        let sh = l.shared_line(vm, 0).base().0;
        let p0 = l.private_line(vm, VcpuId(0), 0).base().0;
        let p1 = l.private_line(vm, VcpuId(1), 0).base().0;
        // Region starts are strictly ordered and spaced by their sizes.
        assert!(code < os && os < sh && sh < p0 && p0 < p1);
        assert!(os - code >= CODE_BYTES);
        assert!(p1 - p0 >= PRIVATE_BYTES);
        // All in the right VM.
        for a in [code, os, sh, p0, p1] {
            assert_eq!(l.vm_of(PhysAddr(a)), Some(vm));
        }
    }

    #[test]
    fn region_indices_wrap_within_region() {
        let l = AddressLayout::new();
        let vm = VmId(0);
        let first = l.code_line(vm, 0);
        let wrapped = l.code_line(vm, CODE_BYTES / 64);
        assert_eq!(first, wrapped);
        let big = l.shared_line(vm, u64::MAX / 128);
        assert_eq!(l.vm_of(big.base()), Some(vm));
    }

    #[test]
    fn scratchpad_copies_are_disjoint_per_vcpu() {
        let l = AddressLayout::new();
        let a = l.scratchpad_lines(VcpuId(0), 0, 2304);
        let b = l.scratchpad_lines(VcpuId(0), 1, 2304);
        let c = l.scratchpad_lines(VcpuId(1), 0, 2304);
        assert_eq!(a.len(), 36); // 2304/64
        for x in &a {
            assert!(!b.contains(x));
            assert!(!c.contains(x));
        }
    }

    #[test]
    fn pat_lines_cover_512_pages_each() {
        let l = AddressLayout::new();
        let p0 = l.pat_line_for(PageAddr(0));
        let p511 = l.pat_line_for(PageAddr(511));
        let p512 = l.pat_line_for(PageAddr(512));
        assert_eq!(p0, p511);
        assert_ne!(p0, p512);
        assert_eq!(p512.0 - p0.0, 1);
    }

    #[test]
    #[should_panic(expected = "vm id out of range")]
    fn vm_base_bounds_checked() {
        AddressLayout::new().vm_base(VmId(99));
    }

    #[test]
    fn private_heaps_fit_exactly_24_vcpus() {
        assert_eq!(PRIVATE_HEAPS, 24);
        let l = AddressLayout::new();
        // VCPU 23's heap ends exactly at the VM span boundary.
        let last = l.private_line(VmId(0), VcpuId(23), PRIVATE_BYTES / 64 - 1);
        assert_eq!(l.vm_of(last.base()), Some(VmId(0)));
        assert_eq!(last.base().0 + 64, VM_SPAN);
    }

    #[test]
    #[should_panic(expected = "too many VCPUs")]
    fn private_heap_overflow_is_rejected() {
        AddressLayout::new().private_line(VmId(0), VcpuId(24), 0);
    }

    #[test]
    #[should_panic(expected = "scratchpad holds two copies")]
    fn scratchpad_copy_bound_checked() {
        AddressLayout::new().scratchpad_lines(VcpuId(0), 2, 2304);
    }
}
