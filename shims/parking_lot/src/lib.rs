//! Offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! This workspace vendors minimal API-compatible shims for its external
//! dependencies so it builds hermetically (no registry access). Only the
//! surface the repo actually uses is provided: `Mutex` and its
//! `MutexGuard`. Unlike `std`, poisoning is unwrapped away — matching
//! parking_lot's panic-propagation-free semantics closely enough for
//! this codebase (a poisoned lock here means a worker already panicked,
//! and the test harness will surface that panic anyway).

pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => MutexGuard { inner: g },
            Err(poison) => MutexGuard {
                inner: poison.into_inner(),
            },
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(3usize);
        *m.lock() += 4;
        assert_eq!(*m.lock(), 7);
    }
}
