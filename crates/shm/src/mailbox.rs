//! A multi-producer mailbox with single-drainer handoff.
//!
//! The shared-memory tree driver replaces the channel mesh of
//! `distctr-net` with one mailbox per processor slot; any thread may
//! push, and whichever thread notices work claims the **drain right**
//! with a CAS on the `busy` flag so at most one thread feeds a slot's
//! engine at a time (the engine lock would serialize them anyway — the
//! flag keeps losers productive elsewhere instead of queueing).
//!
//! The delicate part is the handoff when the drainer leaves: a producer
//! that pushed while `busy` was held relies on the drainer to process
//! the item, while the drainer only processes what it saw before its
//! last empty check. The classic lost-wakeup window — push lands after
//! the drainer's empty check but before it clears `busy`, so the
//! producer saw `busy == true` and walked away — is closed by
//! re-checking the queue *after* clearing `busy` and re-claiming if
//! anything slipped in. `tests/loom.rs` model-checks exactly this
//! protocol (and demonstrates the harness catches the naive variant
//! without the re-check).

use std::collections::VecDeque;
use std::sync::PoisonError;

use crate::sync::{AtomicBool, Mutex, Ordering};

/// A queue of `T` that any thread can push to, drained by one thread at
/// a time.
#[derive(Debug)]
pub struct Mailbox<T> {
    queue: Mutex<VecDeque<T>>,
    busy: AtomicBool,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Mailbox<T> {
    /// An empty mailbox.
    #[must_use]
    pub fn new() -> Self {
        Mailbox { queue: Mutex::new(VecDeque::new()), busy: AtomicBool::new(false) }
    }

    /// Enqueues one item. Never blocks beyond the internal queue lock.
    pub fn push(&self, item: T) {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).push_back(item);
    }

    /// Pops one item; only the holder of the drain right calls it.
    fn pop(&self) -> Option<T> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).pop_front()
    }

    /// Whether the queue is currently empty (racy by nature; used as a
    /// work hint by the pump, never for correctness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).is_empty()
    }

    /// Claims the drain right and feeds every queued item to `handle`
    /// until the mailbox is observed empty; returns the number
    /// processed. If another thread holds the drain right, returns 0
    /// immediately — that thread is responsible for everything currently
    /// queued, including items pushed while it drains (guaranteed by its
    /// exit re-check below).
    pub fn drain(&self, mut handle: impl FnMut(T)) -> usize {
        let mut processed = 0;
        loop {
            if self.busy.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_err()
            {
                return processed;
            }
            while let Some(item) = self.pop() {
                handle(item);
                processed += 1;
            }
            self.busy.store(false, Ordering::SeqCst);
            // The lost-wakeup close: a push that landed after our last
            // pop saw `busy == true` and walked away, counting on us.
            // Now that `busy` is clear, either we re-claim and process
            // it, or whoever beat us to the CAS does.
            if self.is_empty() {
                return processed;
            }
        }
    }

    /// The naive drain **without** the exit re-check: claim, drain, drop
    /// the flag, leave. Kept (loom builds only) as the negative control
    /// for the model-test suite, which proves the harness detects the
    /// stranded-item interleaving this version permits.
    #[cfg(feature = "loom")]
    pub fn drain_naive(&self, mut handle: impl FnMut(T)) -> usize {
        let mut processed = 0;
        if self.busy.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_err() {
            return processed;
        }
        while let Some(item) = self.pop() {
            handle(item);
            processed += 1;
        }
        self.busy.store(false, Ordering::SeqCst);
        processed
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::sync::{thread, Arc};
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    #[test]
    fn fifo_within_a_single_producer() {
        let mb = Mailbox::new();
        for i in 0..5 {
            mb.push(i);
        }
        let mut seen = Vec::new();
        assert_eq!(mb.drain(|i| seen.push(i)), 5);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert!(mb.is_empty());
    }

    #[test]
    fn every_pushed_item_is_drained_exactly_once_under_contention() {
        const PRODUCERS: usize = 4;
        const PER: u64 = 500;
        let mb = Arc::new(Mailbox::new());
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let mb = Arc::clone(&mb);
                let sum = Arc::clone(&sum);
                let count = Arc::clone(&count);
                thread::spawn(move || {
                    for i in 0..PER {
                        mb.push(p as u64 * PER + i);
                        mb.drain(|v| {
                            sum.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer");
        }
        // Whatever drains last leaves nothing behind.
        mb.drain(|v| {
            sum.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        let n = PRODUCERS as u64 * PER;
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), n as usize);
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), n * (n - 1) / 2);
    }
}
