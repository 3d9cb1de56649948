//! lora-spatial: the cell-sharded spatial substrate for million-device
//! scale-out.
//!
//! The dense pipeline (`lora-sim` attenuation matrix → `lora-model`
//! interference sums → `ef-lora` greedy scan) is O(N²) in devices. This
//! crate supplies the pieces that let the allocator, model, and simulator
//! touch only *local* structure:
//!
//! * [`grid::CellGrid`] — a uniform cell index over device sites with
//!   CSR membership, neighborhood (boundary-ring) iteration, and a
//!   cell-indexed [`grid::neighbor_counts`] that is byte-identical to the
//!   dense O(N²) scan;
//! * [`horizon`] — the attenuation horizon (the distance past which a
//!   max-power transmitter falls below a fraction of the noise floor)
//!   and the occupancy-clamped cell-sizing rule derived from it;
//! * [`tiled::TiledAttenuation`] — one `lora_sim::AttenuationMatrix`
//!   per cell, over the cell's devices and gateway subset, built by the
//!   same row builder as the dense matrix so entries are bitwise
//!   identical, with memory scaling in occupancy instead of population²;
//! * [`farfield::FarFieldPricer`] — the paper's Eq. 17–20 PPP machinery
//!   in truncated form, pricing everything beyond a cell's boundary ring
//!   as an analytic annulus integral (mean interference, occupancy, and
//!   the literal truncated Laplace transform).
//!
//! Consumers: `ef-lora` (`ef_lora::spatial`) shards the allocation over
//! cells and builds each cell's `lora-model` model over the cell's tile,
//! with the priced far field as ambient offsets. The simulator and the
//! serve daemon still use the one all-gateway tile (the dense matrix).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod farfield;
pub mod grid;
pub mod horizon;
pub mod tiled;

pub use farfield::FarFieldPricer;
pub use grid::CellGrid;
pub use horizon::{attenuation_horizon_m, cell_size_m, DEFAULT_HORIZON_EPSILON};
pub use tiled::TiledAttenuation;
