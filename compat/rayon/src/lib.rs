//! Offline stand-in for the `rayon` crate: the one thing the workspace
//! uses, an order-preserving parallel map, on `std` threads (crates.io
//! is unavailable in the build environment). Its locks are the
//! workspace's one lock type, `parking_lot`, so they join its
//! lock-order check.
//!
//! Each [`par_map`] call runs inside [`std::thread::scope`]. Every lane,
//! the caller included, takes the next item from the call's queue and
//! writes the result into the slot of the item's input index, so the
//! output never depends on the lane count or on scheduling. While items
//! remain, a lane may borrow a free lane from the process-wide budget
//! set by [`configure_global`] and spawn one more helper thread.
//!
//! The caller always works its own call, so one lane is a plain
//! in-order map on the caller, and a nested call (an item that itself
//! calls `par_map`) cannot deadlock. Nested calls share the budget: at
//! most `lanes - 1` helpers run at once, and a lane that one call hands
//! back is picked up by another call at its next item. A panicking item
//! is caught; the first payload is re-raised once every other item has
//! finished, as rayon does.

#![forbid(unsafe_code)]

use std::any::Any;
use std::iter::Enumerate;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread::Scope;

use parking_lot::Mutex;

/// The process-wide lane budget.
struct Budget {
    /// Lanes per the last [`configure_global`]; 0 means available
    /// parallelism, resolved on first use.
    lanes: usize,
    /// Helper threads running now, over every call.
    helpers: usize,
}

impl Budget {
    fn lanes(&mut self) -> usize {
        if self.lanes == 0 {
            self.lanes =
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        }
        self.lanes
    }
}

static GLOBAL: Mutex<Budget> = Mutex::new(Budget {
    lanes: 0,
    helpers: 0,
});

/// A helper lane borrowed from a budget, handed back on drop.
struct Lent(&'static Mutex<Budget>);

impl Lent {
    fn borrow(budget: &'static Mutex<Budget>) -> Option<Self> {
        let mut b = budget.lock();
        (b.helpers + 1 < b.lanes()).then(|| {
            b.helpers += 1;
            Self(budget)
        })
    }
}

impl Drop for Lent {
    fn drop(&mut self) {
        self.0.lock().helpers -= 1;
    }
}

/// One `par_map` call, shared by its lanes.
struct Call<T, R, F> {
    budget: &'static Mutex<Budget>,
    state: Mutex<State<T, R>>,
    f: F,
}

struct State<T, R> {
    items: Enumerate<std::vec::IntoIter<T>>,
    slots: Vec<Option<R>>,
    panic: Option<Box<dyn Any + Send>>,
}

/// Sets the process-wide lane budget (0 = available parallelism);
/// helpers already running stay until their call's queue is empty.
pub fn configure_global(lanes: usize) {
    GLOBAL.lock().lanes = lanes;
}

/// Lanes [`par_map`] may use, the caller's included.
#[must_use]
pub fn current_num_threads() -> usize {
    GLOBAL.lock().lanes()
}

/// Deterministic parallel map: applies `f` to every item and returns
/// the results in input order, for any lane count.
///
/// # Panics
///
/// Re-raises the first panic of `f`, after every other item finished.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    map_on(&GLOBAL, items, f)
}

fn map_on<T, R, F>(budget: &'static Mutex<Budget>, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut slots = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let state = Mutex::new(State {
        items: items.into_iter().enumerate(),
        slots,
        panic: None,
    });
    let call = Call { budget, state, f };
    std::thread::scope(|scope| lane(scope, &call));
    let state = call.state.into_inner();
    if let Some(payload) = state.panic {
        resume_unwind(payload);
    }
    let result = |slot: Option<R>| slot.expect("par_map item finished without a result");
    state.slots.into_iter().map(result).collect()
}

/// Runs items of `call` until its queue is empty, recruiting a helper
/// whenever an item remains and the budget has a free lane.
fn lane<'scope, 'env, T, R, F>(scope: &'scope Scope<'scope, 'env>, call: &'env Call<T, R, F>)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    loop {
        let (next, more) = {
            let mut state = call.state.lock();
            (state.items.next(), state.items.len() > 0)
        };
        let Some((index, item)) = next else {
            return;
        };
        if let Some(lent) = more.then(|| Lent::borrow(call.budget)).flatten() {
            // A failed spawn drops the closure, and with it the lent
            // lane: the items left run on the lanes already working.
            let _ = std::thread::Builder::new().spawn_scoped(scope, move || {
                let _lent = lent;
                lane(scope, call);
            });
        }
        let result = catch_unwind(AssertUnwindSafe(|| (call.f)(item)));
        let mut state = call.state.lock();
        match result {
            Ok(r) => state.slots[index] = Some(r),
            Err(payload) => {
                state.panic.get_or_insert(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::time::Duration;

    /// A budget of its own, so tests running at once do not share one.
    fn budget(lanes: usize) -> &'static Mutex<Budget> {
        Box::leak(Box::new(Mutex::new(Budget { lanes, helpers: 0 })))
    }

    #[test]
    fn par_map_preserves_input_order() {
        for (lanes, n) in [(1, 100), (2, 100), (8, 100), (4, 0), (8, 10_000)] {
            let out = map_on(budget(lanes), (0..n).collect(), |x: u64| x * x);
            let expected = (0..n).map(|x| x * x);
            assert!(out.into_iter().eq(expected), "lanes {lanes}");
        }
    }

    #[test]
    fn one_lane_runs_in_order_on_the_caller() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        map_on(budget(1), (0..8).collect(), |i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().push(i);
        });
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn panic_propagates_after_every_other_item_finishes() {
        for lanes in [1, 4] {
            let done = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                map_on(budget(lanes), (0..16).collect(), |i| {
                    assert_ne!(i, 7, "item seven exploded");
                    done.fetch_add(1, SeqCst);
                })
            }));
            let payload = result.expect_err("par_map should re-raise the item panic");
            let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("item seven"), "payload {msg:?}");
            assert_eq!(done.load(SeqCst), 15, "lanes {lanes}");
        }
    }

    /// Nested calls finish (no deadlock), and however they nest, no more
    /// than `lanes` items run at once.
    #[test]
    fn nested_calls_finish_with_at_most_lanes_items_at_once() {
        for lanes in [1, 2, 4] {
            let b = budget(lanes);
            let (active, peak, done) = (
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            );
            let leaf = |_: u32| {
                peak.fetch_max(active.fetch_add(1, SeqCst) + 1, SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                active.fetch_sub(1, SeqCst);
                done.fetch_add(1, SeqCst);
            };
            map_on(b, (0..16).collect(), leaf);
            map_on(b, (0..4).collect(), |_: u32| {
                map_on(b, (0..8).collect(), leaf)
            });
            assert_eq!(done.load(SeqCst), 16 + 4 * 8, "lanes {lanes}");
            let peak = peak.load(SeqCst);
            assert!((1..=lanes).contains(&peak), "lanes {lanes}: peak {peak}");
            assert_eq!(b.lock().helpers, 0, "lanes {lanes}");
        }
    }

    #[test]
    fn global_budget_is_reconfigurable() {
        for lanes in [3, 1] {
            configure_global(lanes);
            assert_eq!(current_num_threads(), lanes);
            assert_eq!(par_map(vec![1u32, 2, 3], |x| x + 1), vec![2, 3, 4]);
        }
        configure_global(0);
        assert!(current_num_threads() >= 1);
    }
}
