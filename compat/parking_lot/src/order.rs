//! The run-time lock-order check, compiled only under
//! `debug_assertions` (after Linux lockdep,
//! <https://docs.kernel.org/locking/lockdep-design.html>).
//!
//! A lock's *class* is the source location that constructed it, so
//! every `Mutex` made by one `Mutex::new` call site is one class, in
//! whatever crate it lives. Each thread keeps the list of locks it
//! holds. Before [`Mutex::lock`](crate::Mutex::lock) blocks, every
//! held-A-then-B order it is about to create goes into one
//! process-wide graph of classes. An order that closes a cycle in that
//! graph, or that takes a second lock of a class the thread already
//! holds, panics and names both construction sites, even if this run
//! would never have deadlocked. A thread-local set of the edges it has
//! already added keeps the global graph's lock off the common path.
//! Thread-locals are reached with `try_with`, so a lock taken or
//! dropped while its thread tears them down is simply not checked.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::Location;
use std::sync::{Mutex, PoisonError};

/// A lock class: where the lock was constructed.
pub(crate) type Class = &'static Location<'static>;

/// Every held-A-then-B order any thread has taken: A → {B}.
static GRAPH: Mutex<BTreeMap<Class, BTreeSet<Class>>> = Mutex::new(BTreeMap::new());

/// One thread's view of the check.
struct Local {
    /// The locks this thread holds, in the order it took them, as
    /// (address, class).
    held: Vec<(usize, Class)>,
    /// The edges this thread has already put in [`GRAPH`].
    seen: BTreeSet<(Class, Class)>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            held: Vec::new(),
            seen: BTreeSet::new(),
        })
    };
}

/// Records the orders that taking the lock at `addr`, of `class`, adds
/// behind every lock this thread holds, then lists it as held. Called
/// before the lock blocks.
///
/// # Panics
///
/// Panics if one of those orders closes a cycle, or if the thread
/// already holds a lock of `class`.
pub(crate) fn acquire(addr: usize, class: Class) -> Held {
    let fault = LOCAL.try_with(|local| {
        let Local { held, seen } = &mut *local.borrow_mut();
        let fault = held
            .iter()
            .find_map(|&(_, before)| add_edge(seen, before, class));
        if fault.is_none() {
            held.push((addr, class));
        }
        fault
    });
    if let Ok(Some(fault)) = fault {
        panic!("{fault}");
    }
    Held(addr)
}

/// Adds the edge `before` → `after` to the graph, or describes why it
/// may not be added.
fn add_edge(seen: &mut BTreeSet<(Class, Class)>, before: Class, after: Class) -> Option<String> {
    if before == after {
        return Some(format!(
            "lock order: a lock made at {after} is taken while this thread \
             already holds one made at the same site"
        ));
    }
    if seen.contains(&(before, after)) {
        return None;
    }
    let mut graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(path) = path(&graph, after, before) {
        let path: Vec<String> = path.iter().map(ToString::to_string).collect();
        return Some(format!(
            "lock-order cycle: the lock made at {after} is taken while holding \
             the one made at {before}, but the opposite order was taken before: {}",
            path.join(" -> ")
        ));
    }
    graph.entry(before).or_default().insert(after);
    seen.insert((before, after));
    None
}

/// A path of held-then-taken orders from `from` to `to`, if any.
fn path(graph: &BTreeMap<Class, BTreeSet<Class>>, from: Class, to: Class) -> Option<Vec<Class>> {
    let mut parent = BTreeMap::from([(from, from)]);
    let mut frontier = vec![from];
    while let Some(at) = frontier.pop() {
        if at == to {
            let (mut path, mut step) = (vec![to], to);
            while step != from {
                step = parent[step];
                path.push(step);
            }
            path.reverse();
            return Some(path);
        }
        for &next in graph.get(at).into_iter().flatten() {
            if !parent.contains_key(next) {
                parent.insert(next, at);
                frontier.push(next);
            }
        }
    }
    None
}

/// A guard's entry in its thread's held list, removed on drop, so
/// guards may be dropped in any order.
pub(crate) struct Held(usize);

impl Held {
    /// Adds the lock at `addr` to this thread's held list.
    pub(crate) fn push(addr: usize, class: Class) -> Self {
        let _ = LOCAL.try_with(|local| local.borrow_mut().held.push((addr, class)));
        Self(addr)
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        let _ = LOCAL.try_with(|local| {
            let held = &mut local.borrow_mut().held;
            if let Some(i) = held.iter().rposition(|&(addr, _)| addr == self.0) {
                held.remove(i);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    use super::*;
    use crate::{Condvar, Mutex};

    /// Classes this thread holds, oldest first.
    fn held() -> Vec<Class> {
        LOCAL.with(|local| local.borrow().held.iter().map(|&(_, c)| c).collect())
    }

    fn has_edge(before: Class, after: Class) -> bool {
        let graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
        graph.get(before).is_some_and(|next| next.contains(after))
    }

    struct Shared {
        clients: Mutex<Vec<u8>>,
        rigs: Mutex<Vec<u8>>,
    }

    fn shutdown(s: &Shared) {
        let clients = s.clients.lock();
        let rigs = s.rigs.lock();
        drop((clients, rigs));
    }

    fn supervise(s: &Shared) {
        let rigs = s.rigs.lock();
        let clients = s.clients.lock();
        drop((rigs, clients));
    }

    #[test]
    fn opposite_orders_panic_naming_both_sites() {
        let s = Shared {
            clients: Mutex::new(Vec::new()),
            rigs: Mutex::new(Vec::new()),
        };
        shutdown(&s);
        let payload = catch_unwind(AssertUnwindSafe(|| supervise(&s)))
            .expect_err("rigs then clients must close the cycle");
        let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("lock-order cycle"), "{msg}");
        assert!(msg.contains(&s.clients.class.to_string()), "{msg}");
        assert!(msg.contains(&s.rigs.class.to_string()), "{msg}");
        assert!(held().is_empty(), "the unwound guard left the held list");
        shutdown(&s);
    }

    #[test]
    fn one_consistent_order_passes() {
        let s = Shared {
            clients: Mutex::new(Vec::new()),
            rigs: Mutex::new(Vec::new()),
        };
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| (0..100).for_each(|_| shutdown(&s)));
            }
        });
        assert!(has_edge(s.clients.class, s.rigs.class));
    }

    #[test]
    fn same_site_nesting_panics() {
        let pair: Vec<Mutex<u8>> = (0..2).map(|_| Mutex::new(0)).collect();
        let first = pair[0].lock();
        let payload = catch_unwind(AssertUnwindSafe(|| pair[1].lock()))
            .expect_err("two locks of one class nest");
        let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains(&pair[0].class.to_string()), "{msg}");
        drop(first);
    }

    #[test]
    fn out_of_order_drops_leave_the_held_list_correct() {
        let (a, b, c, d) = (Mutex::new(0), Mutex::new(0), Mutex::new(0), Mutex::new(0));
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.lock();
        assert_eq!(held(), [a.class, b.class, c.class]);
        drop(gb);
        assert_eq!(held(), [a.class, c.class]);
        drop(ga);
        assert_eq!(held(), [c.class]);
        let gd = d.lock();
        assert_eq!(held(), [c.class, d.class]);
        assert!(has_edge(c.class, d.class) && !has_edge(a.class, d.class));
        drop((gc, gd));
        assert!(held().is_empty());
    }

    #[test]
    fn condvar_wait_while_holding_a_second_lock_adds_no_edge() {
        let (a, b, cv) = (Mutex::new(0), Mutex::new(0), Condvar::new());
        let mut ga = a.lock();
        let gb = b.lock();
        assert!(cv.wait_for(&mut ga, Duration::from_millis(1)).timed_out());
        assert_eq!(held(), [a.class, b.class]);
        assert!(!has_edge(b.class, a.class), "re-taking a after the wait");
        drop((ga, gb));
        drop((a.lock(), b.lock()));
    }

    #[test]
    fn try_lock_adds_no_edge_but_counts_as_held() {
        let (a, b, c) = (Mutex::new(0), Mutex::new(0), Mutex::new(0));
        let ga = a.lock();
        let gb = b.try_lock().expect("b is free");
        assert!(!has_edge(a.class, b.class));
        assert_eq!(held(), [a.class, b.class]);
        let gc = c.lock();
        assert!(has_edge(b.class, c.class));
        drop((ga, gb, gc));
        // No a → b edge was recorded, so the opposite order is legal.
        drop((b.lock(), a.lock()));
    }
}
