// Planted atomics violations: weak orderings outside the approved
// lock-free modules. (`atomics_outside` does not carry the
// `atomics_ring` fixture prefix, so this file is unapproved.)

fn counter_bump(count: &AtomicU64, flag: &AtomicBool) {
    count.fetch_add(1, Ordering::Relaxed); //~ atomics
    flag.store(true, Ordering::Release); //~ atomics
    while !flag.load(Ordering::Acquire) {} //~ atomics
}

fn seqcst_is_always_fine(count: &AtomicU64) {
    count.fetch_add(1, Ordering::SeqCst);
}
