//! One background thread that runs a closure on a fixed interval — the
//! loop behind the resource sampler and the crawl-progress reporter. It
//! waits on a condition variable rather than sleeping, so
//! [`Periodic::stop`] returns as soon as the tick in progress (if any)
//! does, never a whole interval late.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The stop flag and the condition variable that announces it.
type StopSignal = (Mutex<bool>, Condvar);

/// A named thread calling `tick` every `interval` until stopped. The
/// interval runs from the end of one tick to the start of the next.
/// Dropping the handle stops and joins the thread.
#[derive(Debug)]
pub struct Periodic {
    signal: Arc<StopSignal>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Periodic {
    /// Start the thread. The first tick fires one `interval` from now.
    /// If the OS refuses a thread, no tick ever fires and
    /// [`stop`](Self::stop) is a no-op.
    pub fn spawn(
        name: &str,
        interval: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> Periodic {
        let signal: Arc<StopSignal> = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_signal = Arc::clone(&signal);
        let handle = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || {
                let (stopped, wake) = &*thread_signal;
                loop {
                    let guard = stopped.lock().unwrap_or_else(PoisonError::into_inner);
                    let (guard, _) = wake
                        .wait_timeout_while(guard, interval, |stopped| !*stopped)
                        .unwrap_or_else(PoisonError::into_inner);
                    if *guard {
                        return;
                    }
                    drop(guard);
                    tick();
                }
            })
            .ok();
        Periodic {
            signal,
            handle: Mutex::new(handle),
        }
    }

    /// Wake the thread, wait for it to exit. Idempotent. No tick starts
    /// after this is called; one already running finishes first.
    pub fn stop(&self) {
        let (stopped, wake) = &*self.signal;
        *stopped.lock().unwrap_or_else(PoisonError::into_inner) = true;
        wake.notify_all();
        let handle = self
            .handle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            // A panicking tick already reported itself on stderr; stop()
            // runs from Drop impls, so it must not panic in turn.
            let _ = handle.join();
        }
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    #[test]
    fn stop_does_not_wait_out_the_interval() {
        let (tx, rx) = mpsc::channel();
        let periodic = Periodic::spawn("test-periodic", Duration::from_secs(10), move || {
            let _ = tx.send(());
        });
        let start = Instant::now();
        periodic.stop();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "stop took {:?} of a 10 s interval",
            start.elapsed()
        );
        assert!(rx.try_recv().is_err(), "no tick before the first interval");
        periodic.stop(); // idempotent
    }

    #[test]
    fn short_interval_keeps_ticking() {
        let (tx, rx) = mpsc::channel();
        let periodic = Periodic::spawn("test-periodic", Duration::from_millis(5), move || {
            let _ = tx.send(());
        });
        for tick in 0..3 {
            rx.recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("tick {tick} never fired"));
        }
        periodic.stop();
        // The sender lived in the thread: a joined thread has dropped it.
        while rx.try_recv().is_ok() {}
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }

    #[test]
    fn drop_joins_the_thread() {
        let (tx, rx) = mpsc::channel::<()>();
        let periodic = Periodic::spawn("test-periodic", Duration::from_secs(10), move || {
            let _ = tx.send(());
        });
        drop(periodic);
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }
}
