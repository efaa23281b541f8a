//! Switchable concurrency shim: `std` primitives by default, a
//! model-checking scheduler under `--cfg loom`.
//!
//! Every crate in this workspace imports atomics, `UnsafeCell`, threads,
//! and blocking mutexes **exclusively** through this module (enforced for
//! atomics by clippy's `disallowed_types` and `disallowed_methods` under
//! `--cfg loom`; see the root `clippy.toml`). In a normal build the
//! re-exports below compile to the `std` types with zero overhead. When
//! built with `RUSTFLAGS="--cfg loom"`, the same paths resolve to
//! instrumented wrappers that funnel every atomic operation through the
//! deterministic scheduler in [`sched`], which explores thread
//! interleavings exhaustively (up to a preemption bound) the way
//! [loom](https://docs.rs/loom) / CHESS do.
//!
//! The crates registry is unreachable in this build environment, so the
//! loom dependency itself cannot be added; [`sched`] is a self-contained
//! reimplementation of the part we need: systematic exploration of
//! sequentially-consistent interleavings at atomic-operation granularity
//! with bounded preemptions. It does **not** simulate weak memory
//! orderings (every instrumented access is performed `SeqCst`), so it can
//! miss reordering-only bugs; see `docs/VERIFICATION.md` for what each
//! verification layer does and does not prove.
//!
//! # Layout
//!
//! | module | normal build | `--cfg loom` |
//! |---|---|---|
//! | [`atomic`] | re-export of `std::sync::atomic` types | instrumented wrappers |
//! | [`cell`] | `std::cell::UnsafeCell` | same (accesses are *not* checked) |
//! | [`thread`] | `std::thread::{spawn, yield_now}` | scheduler-registered threads |
//! | [`sync`] | `std::sync::{Mutex, MutexGuard}` | scheduler-aware blocking mutex |
//! | [`hint`] | `std::hint::spin_loop`; `prefetch_read` (`_mm_prefetch` on x86_64) | no-ops (spinning is modeled by the scheduler) |
//!
//! # Example (model checking)
//!
//! ```ignore
//! // Only compiles under RUSTFLAGS="--cfg loom".
//! use std::sync::Arc;
//! use valois_sync::shim::atomic::{AtomicUsize, Ordering};
//!
//! valois_sync::shim::model(|| {
//!     let x = Arc::new(AtomicUsize::new(0));
//!     let x2 = Arc::clone(&x);
//!     let t = valois_sync::shim::thread::spawn(move || x2.fetch_add(1, Ordering::AcqRel));
//!     x.fetch_add(1, Ordering::AcqRel);
//!     t.join().unwrap();
//!     assert_eq!(x.load(Ordering::Acquire), 2);
//! });
//! ```

// The shim is the one place that names the std atomics it wraps.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

#[cfg(loom)]
pub mod sched;

#[cfg(loom)]
pub use sched::{model, Builder};

/// Atomic types and orderings.
///
/// Normal builds re-export `std::sync::atomic`; under `--cfg loom` these
/// are wrappers that insert a scheduling point before every operation.
pub mod atomic {
    #[cfg(not(loom))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };

    #[cfg(loom)]
    pub use std::sync::atomic::Ordering;

    #[cfg(loom)]
    mod instrumented {
        use super::Ordering;
        use crate::shim::sched;
        use std::fmt;

        // Under the model checker every access is performed SeqCst: the
        // scheduler explores interleavings of sequentially-consistent
        // executions, so honouring weaker caller orderings would only
        // *reduce* the guarantees without changing what is explored.
        macro_rules! instrumented_int {
            ($(#[$meta:meta])* $name:ident, $ty:ty, $std:ty) => {
                $(#[$meta])*
                pub struct $name {
                    inner: $std,
                }

                impl $name {
                    /// Creates a new atomic with the given initial value.
                    pub const fn new(v: $ty) -> Self {
                        Self { inner: <$std>::new(v) }
                    }

                    /// Instrumented load.
                    #[track_caller]
                    pub fn load(&self, _order: Ordering) -> $ty {
                        sched::sched_point();
                        self.inner.load(Ordering::SeqCst)
                    }

                    /// Instrumented store.
                    #[track_caller]
                    pub fn store(&self, v: $ty, _order: Ordering) {
                        sched::sched_point();
                        self.inner.store(v, Ordering::SeqCst)
                    }

                    /// Instrumented swap.
                    #[track_caller]
                    pub fn swap(&self, v: $ty, _order: Ordering) -> $ty {
                        sched::sched_point();
                        self.inner.swap(v, Ordering::SeqCst)
                    }

                    /// Instrumented compare-exchange.
                    #[track_caller]
                    pub fn compare_exchange(
                        &self,
                        current: $ty,
                        new: $ty,
                        _success: Ordering,
                        _failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        sched::sched_point();
                        self.inner
                            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                    }

                    /// Instrumented compare-exchange-weak (never fails
                    /// spuriously under the model checker, which is a
                    /// legal strengthening).
                    #[track_caller]
                    pub fn compare_exchange_weak(
                        &self,
                        current: $ty,
                        new: $ty,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        self.compare_exchange(current, new, success, failure)
                    }

                    /// Instrumented fetch-add.
                    #[track_caller]
                    pub fn fetch_add(&self, v: $ty, _order: Ordering) -> $ty {
                        sched::sched_point();
                        self.inner.fetch_add(v, Ordering::SeqCst)
                    }

                    /// Instrumented fetch-sub.
                    #[track_caller]
                    pub fn fetch_sub(&self, v: $ty, _order: Ordering) -> $ty {
                        sched::sched_point();
                        self.inner.fetch_sub(v, Ordering::SeqCst)
                    }

                    /// Instrumented fetch-max.
                    #[track_caller]
                    pub fn fetch_max(&self, v: $ty, _order: Ordering) -> $ty {
                        sched::sched_point();
                        self.inner.fetch_max(v, Ordering::SeqCst)
                    }

                    /// Instrumented fetch-and.
                    #[track_caller]
                    pub fn fetch_and(&self, v: $ty, _order: Ordering) -> $ty {
                        sched::sched_point();
                        self.inner.fetch_and(v, Ordering::SeqCst)
                    }

                    /// Instrumented fetch-or.
                    #[track_caller]
                    pub fn fetch_or(&self, v: $ty, _order: Ordering) -> $ty {
                        sched::sched_point();
                        self.inner.fetch_or(v, Ordering::SeqCst)
                    }

                    /// Instrumented fetch-xor.
                    #[track_caller]
                    pub fn fetch_xor(&self, v: $ty, _order: Ordering) -> $ty {
                        sched::sched_point();
                        self.inner.fetch_xor(v, Ordering::SeqCst)
                    }

                    /// Unsynchronized read through exclusive access.
                    pub fn get_mut(&mut self) -> &mut $ty {
                        self.inner.get_mut()
                    }

                    /// Consumes the atomic, returning the value.
                    pub fn into_inner(self) -> $ty {
                        self.inner.into_inner()
                    }
                }

                impl fmt::Debug for $name {
                    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        // No sched point: Debug is used by panic paths.
                        fmt::Debug::fmt(&self.inner, f)
                    }
                }

                impl Default for $name {
                    fn default() -> Self {
                        Self::new(Default::default())
                    }
                }

                impl From<$ty> for $name {
                    fn from(v: $ty) -> Self {
                        Self::new(v)
                    }
                }
            };
        }

        instrumented_int!(
            /// Model-checked `AtomicU8`.
            AtomicU8, u8, std::sync::atomic::AtomicU8
        );
        instrumented_int!(
            /// Model-checked `AtomicU32`.
            AtomicU32, u32, std::sync::atomic::AtomicU32
        );
        instrumented_int!(
            /// Model-checked `AtomicU64`.
            AtomicU64, u64, std::sync::atomic::AtomicU64
        );
        instrumented_int!(
            /// Model-checked `AtomicUsize`.
            AtomicUsize, usize, std::sync::atomic::AtomicUsize
        );

        /// Model-checked `AtomicBool`.
        pub struct AtomicBool {
            inner: std::sync::atomic::AtomicBool,
        }

        impl AtomicBool {
            /// Creates a new atomic bool.
            pub const fn new(v: bool) -> Self {
                Self {
                    inner: std::sync::atomic::AtomicBool::new(v),
                }
            }

            /// Instrumented load.
            #[track_caller]
            pub fn load(&self, _order: Ordering) -> bool {
                sched::sched_point();
                self.inner.load(Ordering::SeqCst)
            }

            /// Instrumented store.
            #[track_caller]
            pub fn store(&self, v: bool, _order: Ordering) {
                sched::sched_point();
                self.inner.store(v, Ordering::SeqCst)
            }

            /// Instrumented swap.
            #[track_caller]
            pub fn swap(&self, v: bool, _order: Ordering) -> bool {
                sched::sched_point();
                self.inner.swap(v, Ordering::SeqCst)
            }

            /// Instrumented compare-exchange.
            #[track_caller]
            pub fn compare_exchange(
                &self,
                current: bool,
                new: bool,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<bool, bool> {
                sched::sched_point();
                self.inner
                    .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            }

            /// Instrumented compare-exchange-weak (never fails spuriously
            /// under the model checker).
            #[track_caller]
            pub fn compare_exchange_weak(
                &self,
                current: bool,
                new: bool,
                success: Ordering,
                failure: Ordering,
            ) -> Result<bool, bool> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Instrumented fetch-and.
            #[track_caller]
            pub fn fetch_and(&self, v: bool, _order: Ordering) -> bool {
                sched::sched_point();
                self.inner.fetch_and(v, Ordering::SeqCst)
            }

            /// Instrumented fetch-or.
            #[track_caller]
            pub fn fetch_or(&self, v: bool, _order: Ordering) -> bool {
                sched::sched_point();
                self.inner.fetch_or(v, Ordering::SeqCst)
            }

            /// Instrumented fetch-xor.
            #[track_caller]
            pub fn fetch_xor(&self, v: bool, _order: Ordering) -> bool {
                sched::sched_point();
                self.inner.fetch_xor(v, Ordering::SeqCst)
            }

            /// Unsynchronized read through exclusive access.
            pub fn get_mut(&mut self) -> &mut bool {
                self.inner.get_mut()
            }
        }

        impl fmt::Debug for AtomicBool {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&self.inner, f)
            }
        }

        impl Default for AtomicBool {
            fn default() -> Self {
                Self::new(false)
            }
        }

        /// Model-checked `AtomicPtr<T>`.
        pub struct AtomicPtr<T> {
            inner: std::sync::atomic::AtomicPtr<T>,
        }

        impl<T> AtomicPtr<T> {
            /// Creates a new atomic pointer.
            pub const fn new(p: *mut T) -> Self {
                Self {
                    inner: std::sync::atomic::AtomicPtr::new(p),
                }
            }

            /// Instrumented load.
            #[track_caller]
            pub fn load(&self, _order: Ordering) -> *mut T {
                sched::sched_point();
                self.inner.load(Ordering::SeqCst)
            }

            /// Instrumented store.
            #[track_caller]
            pub fn store(&self, p: *mut T, _order: Ordering) {
                sched::sched_point();
                self.inner.store(p, Ordering::SeqCst)
            }

            /// Instrumented swap.
            #[track_caller]
            pub fn swap(&self, p: *mut T, _order: Ordering) -> *mut T {
                sched::sched_point();
                self.inner.swap(p, Ordering::SeqCst)
            }

            /// Instrumented compare-exchange.
            #[track_caller]
            pub fn compare_exchange(
                &self,
                current: *mut T,
                new: *mut T,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<*mut T, *mut T> {
                sched::sched_point();
                self.inner
                    .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            }

            /// Instrumented compare-exchange-weak (never fails spuriously
            /// under the model checker).
            #[track_caller]
            pub fn compare_exchange_weak(
                &self,
                current: *mut T,
                new: *mut T,
                success: Ordering,
                failure: Ordering,
            ) -> Result<*mut T, *mut T> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Unsynchronized read through exclusive access.
            pub fn get_mut(&mut self) -> &mut *mut T {
                self.inner.get_mut()
            }
        }

        impl<T> fmt::Debug for AtomicPtr<T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&self.inner, f)
            }
        }

        impl<T> Default for AtomicPtr<T> {
            fn default() -> Self {
                Self::new(std::ptr::null_mut())
            }
        }

        /// Instrumented fence: a scheduling point (all instrumented
        /// accesses are SeqCst already, so no hardware fence is needed).
        #[track_caller]
        pub fn fence(_order: Ordering) {
            sched::sched_point();
        }
    }

    #[cfg(loom)]
    pub use instrumented::{
        fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
    };
}

/// Interior-mutability cell.
///
/// Both modes use `std::cell::UnsafeCell`; the model checker does not
/// instrument raw cell accesses (data-race detection on non-atomic data
/// is Miri/TSan's job — see `docs/VERIFICATION.md`). The shim path exists
/// so a future switch to loom's access-checked `UnsafeCell` is a one-line
/// change here instead of a tree-wide migration.
pub mod cell {
    pub use std::cell::UnsafeCell;
}

/// Spin-wait and prefetch hints.
pub mod hint {
    /// Backoff hint inside spin loops.
    ///
    /// Under the model checker this is a no-op: spinning burns no time in
    /// a deterministic scheduler, and the retry's atomic reload is already
    /// a scheduling point.
    #[inline]
    pub fn spin_loop() {
        #[cfg(not(loom))]
        std::hint::spin_loop();
    }

    /// Asks the cache hierarchy to start loading the line at `p` for a
    /// later read (`prefetcht0` on x86_64).
    ///
    /// A hint only: it reads nothing into the program and cannot fault,
    /// so a null, stale or dangling `p` merely wastes the prefetch. It
    /// compiles to nothing under the model checker (a prefetch is not a
    /// memory access, so there is no interleaving to explore), under
    /// Miri and on other targets.
    #[inline(always)]
    pub fn prefetch_read<T>(p: *const T) {
        #[cfg(all(target_arch = "x86_64", not(loom), not(miri)))]
        // SAFETY: SSE is part of the x86_64 baseline, and `prefetcht0`
        // makes no architectural memory access, whatever the address.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
        }
        #[cfg(not(all(target_arch = "x86_64", not(loom), not(miri))))]
        let _ = p;
    }
}

/// Thread spawning and yielding.
pub mod thread {
    #[cfg(not(loom))]
    pub use std::thread::{spawn, yield_now, JoinHandle};

    #[cfg(loom)]
    pub use crate::shim::sched::{spawn, yield_now, JoinHandle};
}

/// Blocking synchronization (used only off the lock-free hot paths, e.g.
/// the arena's segment table and growth lock).
pub mod sync {
    #[cfg(not(loom))]
    pub use std::sync::{Mutex, MutexGuard};

    #[cfg(loom)]
    pub use crate::shim::sched::{Mutex, MutexGuard};
}
