//! The one bounded record ring, behind the span
//! [`Journal`](crate::trace::Journal) and the [`EventLog`](crate::log::EventLog).

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// An overwrite-oldest ring of at most `cap` records (0 records none)
/// that grows as they arrive, so it holds what was recorded, not what
/// could be. One short lock per record stamps, counts and stores it.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    pub(crate) cap: usize,
    state: Mutex<(VecDeque<T>, u64)>,
}

impl<T: Clone> Ring<T> {
    pub(crate) fn new(cap: usize) -> Ring<T> {
        Ring {
            cap,
            state: Mutex::new((VecDeque::new(), 0)),
        }
    }

    /// Append the record `make` builds from its 0-based sequence number,
    /// dropping the oldest at the cap.
    pub(crate) fn push(&self, make: impl FnOnce(u64) -> T) {
        if self.cap == 0 {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (items, recorded) = &mut *state;
        if items.len() == self.cap {
            items.pop_front();
        } else if items.len() == items.capacity() {
            // Double as `VecDeque` would, but never past the cap.
            items.reserve_exact(items.len().max(8).min(self.cap - items.len()));
        }
        items.push_back(make(*recorded));
        *recorded += 1;
    }

    /// Records ever pushed, overwritten ones included.
    pub(crate) fn recorded(&self) -> u64 {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).1
    }

    /// The retained records, oldest first, and the count ever pushed.
    pub(crate) fn snapshot(&self) -> (Vec<T>, u64) {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (state.0.iter().cloned().collect(), state.1)
    }
}
