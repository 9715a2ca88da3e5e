//! Scratch-arena buffers for the decode hot paths.
//!
//! The signal-level decoder touches the same handful of temporary
//! `Vec<Complex>` shapes for every chunk it processes — the resampled
//! symbol grid, the equalized grid, the synthesized image window, the
//! observed-span copy used for tracking feedback. Before this module
//! existed each of those was allocated fresh, dozens of times per decoded
//! symbol. A [`Scratch`] is threaded through the hot loops instead: the
//! buffers are taken from a small pool, reused, and returned, so steady-
//! state decoding performs no per-chunk heap allocation.
//!
//! A `Scratch` is deliberately cheap to create (empty pool): per-work-unit
//! scratches are how the [`BatchEngine`](crate::engine::BatchEngine) keeps
//! worker threads allocation-isolated from one another.

use crate::view::{ChunkDecode, Image};
use zigzag_phy::complex::Complex;
use zigzag_phy::kernel::{BackendKind, Kernel};

/// A recycling pool of `Vec<Complex>` buffers.
///
/// `take` hands out a cleared buffer (retaining its previous capacity when
/// one is available); `put` returns it. Buffers that are never returned are
/// simply dropped — the pool is an optimisation, not an obligation.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<Complex>>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer from the pool (or a fresh one).
    pub fn take(&mut self) -> Vec<Complex> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, mut v: Vec<Complex>) {
        v.clear();
        self.free.push(v);
    }

    /// Number of buffers currently pooled (for tests/diagnostics).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// Reusable working state for one decode context (one receiver, one
/// `BatchEngine` work unit, or one `ZigzagDecoder::decode` call).
///
/// Besides the buffer pool, a scratch carries the [`Kernel`] — the phy
/// compute backend plus its SoA staging buffers — so the backend is
/// selected once per decode context and every hot loop below it
/// (correlation scans, FIR equalization, chunk resampling, MRC) runs on
/// the same implementation.
#[derive(Debug, Default)]
pub struct Scratch {
    /// General-purpose complex-buffer pool.
    pub pool: BufPool,
    /// Reused chunk-decode output (soft + hard symbol vectors).
    pub chunk: ChunkDecode,
    /// Reused synthesized-image buffer.
    pub image: Image,
    /// The phy kernel backend (and its SoA temporaries) the hot loops
    /// dispatch to.
    pub kernel: Kernel,
}

impl Scratch {
    /// A fresh scratch with empty buffers and the default backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh scratch pinned to a specific kernel backend.
    pub fn with_backend(kind: BackendKind) -> Self {
        Self { kernel: Kernel::new(kind), ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_capacity() {
        let mut pool = BufPool::new();
        let mut v = pool.take();
        v.reserve(1024);
        let cap = v.capacity();
        pool.put(v);
        assert_eq!(pool.pooled(), 1);
        let v2 = pool.take();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn take_on_empty_pool_is_fresh() {
        let mut pool = BufPool::new();
        assert_eq!(pool.take().len(), 0);
    }
}
