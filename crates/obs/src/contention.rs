//! Lock contention accounting.
//!
//! A [`ContentionCounter`] wraps a coarse lock with a try-lock fast
//! path: a relaxed counter increment when the lock is free, and a
//! wait-time [`Sketch`] record only on the slow path where the lock was
//! actually held by someone else.

use crate::metrics::{Counter, Determinism, MetricsRegistry};
use crate::sketch::Sketch;
use std::sync::TryLockError;
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Lock instrumentation handle: `acquires` counts every pass through
/// the lock, `contended` counts acquisitions that found it held, and
/// `wait_us` sketches how long those waited. All three are registry
/// handles, so a disabled registry makes the whole thing free after
/// one branch.
#[derive(Debug, Clone, Default)]
pub struct ContentionCounter {
    acquires: Counter,
    contended: Counter,
    wait_us: Sketch,
}

impl ContentionCounter {
    /// A counter that records nothing; the default for instrumented
    /// structures whose owner never wired a registry.
    pub fn noop() -> ContentionCounter {
        ContentionCounter::default()
    }

    /// Register `{name}.acquires`, `{name}.contended`, `{name}.wait_us`
    /// under the given registry (noop handles when it is disabled), all
    /// [`Determinism::Scheduling`]: whether and how often a lock is taken
    /// or contended depends on how workers interleave.
    pub fn register(reg: &MetricsRegistry, name: &str) -> ContentionCounter {
        let class = Determinism::Scheduling;
        ContentionCounter {
            acquires: reg.counter_as(&format!("{name}.acquires"), class),
            contended: reg.counter_as(&format!("{name}.contended"), class),
            wait_us: reg.sketch_as(&format!("{name}.wait_us"), class),
        }
    }

    #[inline]
    pub fn is_live(&self) -> bool {
        self.acquires.is_live()
    }

    /// Instrumented `Mutex::lock`: `try_lock` first (the success path
    /// costs one relaxed increment over a plain lock), and only when
    /// the lock is actually held does the slow path time the wait.
    #[inline]
    pub fn lock<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        if !self.is_live() {
            return m.lock().unwrap();
        }
        self.acquires.incr();
        match m.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contended.incr();
                let t0 = Instant::now();
                let g = m.lock().unwrap();
                self.wait_us.record(t0.elapsed().as_micros() as u64);
                g
            }
            Err(TryLockError::Poisoned(e)) => panic!("instrumented lock poisoned: {e}"),
        }
    }

    /// Instrumented `RwLock::read`.
    #[inline]
    pub fn read<'a, T>(&self, l: &'a RwLock<T>) -> RwLockReadGuard<'a, T> {
        if !self.is_live() {
            return l.read().unwrap();
        }
        self.acquires.incr();
        match l.try_read() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contended.incr();
                let t0 = Instant::now();
                let g = l.read().unwrap();
                self.wait_us.record(t0.elapsed().as_micros() as u64);
                g
            }
            Err(TryLockError::Poisoned(e)) => panic!("instrumented lock poisoned: {e}"),
        }
    }

    /// Instrumented `RwLock::write`.
    #[inline]
    pub fn write<'a, T>(&self, l: &'a RwLock<T>) -> RwLockWriteGuard<'a, T> {
        if !self.is_live() {
            return l.write().unwrap();
        }
        self.acquires.incr();
        match l.try_write() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contended.incr();
                let t0 = Instant::now();
                let g = l.write().unwrap();
                self.wait_us.record(t0.elapsed().as_micros() as u64);
                g
            }
            Err(TryLockError::Poisoned(e)) => panic!("instrumented lock poisoned: {e}"),
        }
    }

    /// Time an opaque critical section (used where the lock lives
    /// behind another crate's API, e.g. the plane offer inside the ipt
    /// ring drain): counts an acquire and sketches the full duration.
    #[inline]
    pub fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.is_live() {
            return f();
        }
        self.acquires.incr();
        let t0 = Instant::now();
        let r = f();
        self.wait_us.record(t0.elapsed().as_micros() as u64);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn contention_counter_counts_and_times_waits() {
        let reg = MetricsRegistry::new(true);
        let cc = ContentionCounter::register(&reg, "lock.test");
        let m = Mutex::new(0u32);
        *cc.lock(&m) += 1;
        *cc.lock(&m) += 1;
        // Force a contended acquisition.
        let held = m.lock().unwrap();
        let waiter = std::thread::spawn({
            let cc = cc.clone();
            move || {
                // m borrowed via scope: use a static-free trick — time a
                // timed section instead to keep the borrow simple.
                cc.timed(|| std::thread::sleep(Duration::from_millis(2)));
            }
        });
        waiter.join().unwrap();
        drop(held);
        let rw = RwLock::new(0u32);
        let _ = *cc.read(&rw);
        *cc.write(&rw) += 1;
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lock.test.acquires"), Some(5));
        assert_eq!(snap.counter("lock.test.contended"), Some(0));
        let wait = snap.sketch("lock.test.wait_us").unwrap();
        assert!(wait.count >= 1, "timed section must feed the sketch");

        let noop = ContentionCounter::noop();
        drop(noop.lock(&m));
        assert!(!noop.is_live());
    }

    #[test]
    fn contended_mutex_hits_slow_path() {
        let reg = MetricsRegistry::new(true);
        let cc = ContentionCounter::register(&reg, "lock.slow");
        let m = Arc::new(Mutex::new(()));
        let held = m.lock().unwrap();
        let t = std::thread::spawn({
            let cc = cc.clone();
            let m = Arc::clone(&m);
            move || {
                let _g = cc.lock(&m);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(held);
        t.join().unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lock.slow.acquires"), Some(1));
        assert_eq!(snap.counter("lock.slow.contended"), Some(1));
        assert!(snap.sketch("lock.slow.wait_us").unwrap().count == 1);
    }
}
