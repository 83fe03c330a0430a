//! Synchronization facade: `std::sync` in production, [`crate::model`]
//! shims under `--cfg treesim_model`.
//!
//! Modules that hand-roll lock-free protocols import their atomics and
//! mutexes from here instead of `std::sync` directly. A normal build
//! re-exports the std types unchanged (zero cost, identical API); a
//! `RUSTFLAGS="--cfg treesim_model"` build swaps in the model checker's
//! instrumented types, so the *production* protocol code — not a
//! hand-written mirror — runs under the exhaustive interleaving scheduler
//! in `crates/obs/tests/model.rs`.
//!
//! The recorder (its push/drain protocol) routes through the facade and
//! is checked end-to-end; span/trace statics cannot be swapped
//! per-run (`static` + `OnceLock` + `thread_local!` lifetimes), so their
//! protocols are mirrored in the model tests instead — see DESIGN.md §14
//! for what that does and doesn't prove.

#[cfg(not(treesim_model))]
pub use std::sync::atomic::AtomicU64;
#[cfg(not(treesim_model))]
pub use std::sync::{Mutex, MutexGuard};

#[cfg(treesim_model)]
pub use crate::model::{AtomicU64, Mutex, MutexGuard};

pub use std::sync::atomic::Ordering;
