//! `par_map_ordered` spreads a short task list under `Auto`.
//!
//! Task lists take the policy's thread count without the calibrated
//! break-even threshold: `act all` renders 27 heavy jobs through one
//! `par_map_ordered` call, far fewer items than the ≥ 512-point threshold
//! that decides point batches. This test sits alone in its own binary so
//! that no other test's job holds the pool, which would make the dispatch
//! run inline on the caller.

use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use act_dse::{par_map_ordered, Parallelism};

/// Index 0 waits until some other index starts on a different thread. Run
/// serially, nothing else starts while it waits, and it gives up after 5 s.
#[test]
fn auto_spreads_a_27_task_list_over_threads() {
    let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    if cores <= 1 || std::env::var_os("ACT_THREADS").is_some() {
        return;
    }
    let started: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let wake = Condvar::new();
    let lock = || started.lock().unwrap_or_else(PoisonError::into_inner);
    let spread = par_map_ordered(Parallelism::Auto, &[(); 27], |index, ()| {
        let me = thread::current().id();
        if index != 0 {
            lock().push(me);
            wake.notify_all();
            return true;
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut ids = lock();
        while !ids.iter().any(|id| *id != me) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            ids = wake.wait_timeout(ids, left).unwrap_or_else(PoisonError::into_inner).0;
        }
        true
    });
    assert!(spread[0], "Auto ran a 27-task list on one thread on a {cores}-core host");
}
