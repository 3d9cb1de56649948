//! Blocked/streamed attenuation: one attenuation tile per cell instead of
//! the dense `[device][gateway]` matrix.
//!
//! The dense [`lora_sim::AttenuationMatrix`] is O(devices × gateways) —
//! fine at 10k devices, ruinous at 1M × many gateways. A
//! [`TiledAttenuation`] holds one [`AttenuationMatrix`] *per cell*, over
//! the cell's devices and only the gateways that matter for that cell
//! (those within the attenuation horizon of it, as chosen by the caller),
//! so memory scales with occupancy × local gateway count rather than
//! population². The dense matrix is the one-cell, all-gateway tile.
//!
//! Every tile is built by the same [`AttenuationMatrix::from_sites`] row
//! builder as the dense matrix, so a tile entry is bitwise identical to
//! the corresponding dense matrix entry.

use crate::grid::CellGrid;
use lora_parallel::par_map_indexed;
use lora_sim::{AttenuationMatrix, Position, SimConfig, Topology};

/// Per-cell attenuation tiles over a [`CellGrid`].
///
/// Tile `c` is the matrix of cell `c`'s devices (in
/// [`CellGrid::members`] order) against the cell's gateway subset, in the
/// order the subset was given to [`TiledAttenuation::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct TiledAttenuation {
    tiles: Vec<AttenuationMatrix>,
}

impl TiledAttenuation {
    /// Builds the tiles for `grid` over `topology`, one tile per cell,
    /// against `gateway_sets[cell]` (global gateway indices). Cells build
    /// in parallel across `threads` workers, each tile serially; a tile
    /// is a pure function of its cell, so the result is identical at any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics when `gateway_sets` is not `grid.cell_count()` long, when
    /// the grid does not index `topology`, or when a gateway id is out of
    /// range.
    pub fn build(
        config: &SimConfig,
        topology: &Topology,
        grid: &CellGrid,
        gateway_sets: &[Vec<u32>],
        threads: usize,
    ) -> Self {
        assert_eq!(
            gateway_sets.len(),
            grid.cell_count(),
            "one gateway set per cell"
        );
        assert_eq!(
            grid.device_count(),
            topology.device_count(),
            "grid must index this topology"
        );
        let tiles = par_map_indexed(grid.cell_count(), threads.max(1), |cell| {
            let gateways: Vec<Position> = gateway_sets[cell]
                .iter()
                .map(|&g| {
                    assert!(
                        (g as usize) < topology.gateway_count(),
                        "gateway id {g} out of range"
                    );
                    topology.gateways()[g as usize]
                })
                .collect();
            let sites = grid
                .members(cell)
                .iter()
                .map(|&dev| &topology.devices()[dev as usize]);
            AttenuationMatrix::from_sites(config, sites, &gateways)
        });
        TiledAttenuation { tiles }
    }

    /// The attenuation tile of `cell`: its members × its gateway subset.
    pub fn tile(&self, cell: usize) -> &AttenuationMatrix {
        &self.tiles[cell]
    }

    /// Approximate heap footprint of the tiles, bytes.
    pub fn approx_bytes(&self) -> usize {
        let data: usize = self
            .tiles
            .iter()
            .map(|t| t.device_count() * t.gateway_count() * 8)
            .sum();
        data + self.tiles.capacity() * std::mem::size_of::<AttenuationMatrix>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_sim::attenuation_matrix;

    fn setup(n: usize, seed: u64) -> (SimConfig, Topology) {
        let config = SimConfig::default();
        let topology = Topology::disc(n, 3, 4_000.0, &config, seed);
        (config, topology)
    }

    /// Asserts every tile is the dense matrix restricted to the cell's
    /// members × the cell's gateway subset, bit for bit.
    fn assert_tiles_restrict_dense(
        tiled: &TiledAttenuation,
        dense: &AttenuationMatrix,
        grid: &CellGrid,
        sets: &[Vec<u32>],
    ) {
        for (cell, set) in sets.iter().enumerate() {
            let tile = tiled.tile(cell);
            let members = grid.members(cell);
            assert_eq!(tile.device_count(), members.len(), "cell {cell} rows");
            assert_eq!(tile.gateway_count(), set.len(), "cell {cell} columns");
            for (m, &id) in members.iter().enumerate() {
                for (local, &g) in set.iter().enumerate() {
                    assert_eq!(
                        tile.at(m, local).to_bits(),
                        dense.at(id as usize, g as usize).to_bits(),
                        "cell {cell} dev {id} gw {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiles_match_dense_entries_bitwise() {
        let (config, topology) = setup(200, 7);
        let grid = CellGrid::build(&topology, 1_500.0);
        // Every cell a different subset, including the full set and a
        // non-ascending one.
        let choices: [&[u32]; 4] = [&[0, 1, 2], &[2], &[0, 2], &[2, 1]];
        let sets: Vec<Vec<u32>> = (0..grid.cell_count())
            .map(|c| choices[c % choices.len()].to_vec())
            .collect();
        let tiled = TiledAttenuation::build(&config, &topology, &grid, &sets, 3);
        let dense = attenuation_matrix(&config, &topology);
        assert_tiles_restrict_dense(&tiled, &dense, &grid, &sets);
    }

    #[test]
    fn thread_count_does_not_change_tiles() {
        let (config, topology) = setup(150, 11);
        let grid = CellGrid::build(&topology, 1_000.0);
        let all: Vec<u32> = (0..topology.gateway_count() as u32).collect();
        let sets = vec![all; grid.cell_count()];
        let one = TiledAttenuation::build(&config, &topology, &grid, &sets, 1);
        let three = TiledAttenuation::build(&config, &topology, &grid, &sets, 3);
        assert_eq!(one, three);
    }

    #[test]
    fn one_gateway_subsets_hold_one_column() {
        let (config, topology) = setup(100, 3);
        let grid = CellGrid::build(&topology, 2_000.0);
        // Only gateway 0 everywhere: the others are far field.
        let sets = vec![vec![0u32]; grid.cell_count()];
        let tiled = TiledAttenuation::build(&config, &topology, &grid, &sets, 2);
        let dense = attenuation_matrix(&config, &topology);
        assert_tiles_restrict_dense(&tiled, &dense, &grid, &sets);
        for cell in 0..grid.cell_count() {
            assert_eq!(tiled.tile(cell).gateway_count(), 1);
        }
    }

    #[test]
    fn footprint_tracks_occupancy_not_population_squared() {
        let (config, topology) = setup(400, 5);
        let grid = CellGrid::build(&topology, 800.0);
        let sets = vec![vec![0u32]; grid.cell_count()];
        let tiled = TiledAttenuation::build(&config, &topology, &grid, &sets, 2);
        // 400 devices × 1 gateway ≈ 3.2 kB of f64s, far below dense×all.
        let entries: usize = (0..grid.cell_count())
            .map(|c| tiled.tile(c).device_count() * tiled.tile(c).gateway_count())
            .sum();
        assert_eq!(entries, 400);
        assert!(tiled.approx_bytes() < 1 << 20);
    }
}
