//! A poison-tolerant lock.
//!
//! The workspace denies `unwrap`/`expect` in library code, and a poisoned
//! lock in the controller means a handler thread panicked while holding the
//! guard — the protected state is still structurally valid (every mutation
//! below is applied through methods that keep their own invariants, and a
//! window roll changes nothing until its fit has returned), so the server
//! keeps serving rather than cascading the panic into every subsequent
//! request.

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the guard from a poisoned lock.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
