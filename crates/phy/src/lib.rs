//! # zigzag-phy — complex-baseband DSP substrate
//!
//! Physical-layer building blocks for the ZigZag reproduction ("ZigZag
//! Decoding: Combating Hidden Terminals in Wireless Networks", SIGCOMM
//! 2008). This crate corresponds to the GNU Radio signal-processing blocks
//! the paper's prototype was built from (§5.1a): everything between bits
//! and complex baseband samples.
//!
//! ## Layout
//!
//! * [`complex`] — the [`complex::Complex`] sample type and signal
//!   arithmetic.
//! * [`bits`] — bit/byte packing and BER computation.
//! * [`crc`] / [`scramble`] — CRC-32 frame check and 802.11-style data
//!   whitening.
//! * [`modulation`] — BPSK/QPSK/16-QAM/64-QAM constellations (the paper's
//!   prototype runs BPSK; the rest demonstrate modulation-independence).
//! * [`preamble`] / [`frame`] — the known preamble and the over-the-air
//!   frame anatomy (preamble ‖ PLCP ‖ scrambled MPDU).
//! * [`correlate`] — frequency-compensated sliding correlation (§4.2.1's
//!   collision detector primitive).
//! * [`interp`] — windowed-sinc fractional interpolation (§4.2.3b).
//! * [`kernel`] — pluggable scalar/simd compute backends for the
//!   hot-loop primitives (correlate/fir/interp/mrc/match metric).
//! * [`filter`] / [`equalize`] / [`linalg`] — ISI channels, least-squares
//!   channel estimation and zero-forcing equalizers (§3.1.3, §4.2.4d).
//! * [`sync`] — data-aided frequency-offset estimation (§3.1.1, §4.2.1);
//!   the phase and timing loops live in `zigzag-core`'s chunk decoder.
//! * [`mrc`] — maximal-ratio combining (§4.3b, Fig 4-1d).
//! * [`coding`] — 802.11 convolutional code + Viterbi (the §6a extension).
//!
//! Nothing in this crate knows about collisions: it is the "standard
//! decoder" toolbox that `zigzag-core` composes, uses as a black box, and
//! inverts for re-encoding.

#![warn(missing_docs)]

pub mod bits;
pub mod coding;
pub mod complex;
pub mod correlate;
pub mod crc;
pub mod equalize;
pub mod filter;
pub mod frame;
pub mod interp;
pub mod kernel;
pub mod linalg;
pub mod modulation;
pub mod mrc;
pub mod preamble;
pub mod scramble;
pub mod sync;

pub use complex::Complex;
pub use filter::Fir;
pub use frame::{AirFrame, Frame, PlcpHeader};
pub use kernel::{Backend, BackendKind, Kernel};
pub use modulation::Modulation;
pub use preamble::Preamble;
