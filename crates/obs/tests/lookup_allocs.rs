//! A registry lookup by name allocates only when it creates the series:
//! resolving a counter or histogram that already exists probes the map
//! with the borrowed name and clones the handle, nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn repeated_lookups_of_an_existing_name_do_not_allocate() {
    let reg = pygb_obs::MetricsRegistry::default();
    reg.counter("serve/expired_in_queue").inc();
    reg.histogram("serve/request_ns").record(1);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        reg.counter("serve/expired_in_queue").inc();
        reg.histogram("serve/request_ns").record(1);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "{allocs} allocations over 2000 lookups");
    assert_eq!(reg.snapshot().counter("serve/expired_in_queue"), 1_001);
}
