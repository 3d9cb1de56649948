//! Network deployments: device and gateway placement.
//!
//! The paper deploys end devices uniformly inside a disc of 5 km radius and
//! places gateways on the cross positions of a mesh over the region — one
//! gateway sits at the centre, multiple gateways form a grid scaled to the
//! coverage (Section IV).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use lora_phy::path_loss::LinkEnvironment;

use crate::config::SimConfig;
use crate::error::SimError;

/// A 2-D position in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// X coordinate, metres.
    pub x: f64,
    /// Y coordinate, metres.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position, metres.
    ///
    /// ```
    /// use lora_sim::Position;
    /// let d = Position::new(0.0, 0.0).distance_to(&Position::new(3.0, 4.0));
    /// assert!((d - 5.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn distance_to(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// One end-device site: where the device sits and how it propagates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceSite {
    /// Device position.
    pub position: Position,
    /// Line-of-sight or not — selects the path-loss exponent from the
    /// configured [`lora_phy::path_loss::BetaProfile`].
    pub environment: LinkEnvironment,
}

/// A deployment: device sites plus gateway positions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    devices: Vec<DeviceSite>,
    gateways: Vec<Position>,
    radius_m: f64,
}

impl Topology {
    /// Creates a topology from explicit sites (for tests and motivation
    /// scenarios).
    pub fn from_sites(devices: Vec<DeviceSite>, gateways: Vec<Position>, radius_m: f64) -> Self {
        Topology {
            devices,
            gateways,
            radius_m,
        }
    }

    /// Generates the paper's deployment: `n_devices` uniform in a disc of
    /// `radius_m`, `n_gateways` on a mesh grid (one gateway → centre), and
    /// LoS/NLoS environments drawn with probability `config.p_los`.
    ///
    /// The `seed` controls placement only; it is independent of the
    /// simulation seed so that the same topology can be re-simulated under
    /// different channel randomness (the paper repeats each deployment 100
    /// times).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or non-positive radius, or `config.p_los`
    /// outside `[0, 1]` — inputs that previously produced NaN positions or
    /// a skewed LoS mix silently. Use [`Topology::try_disc`] to handle the
    /// error instead.
    pub fn disc(
        n_devices: usize,
        n_gateways: usize,
        radius_m: f64,
        config: &SimConfig,
        seed: u64,
    ) -> Self {
        Self::try_disc(n_devices, n_gateways, radius_m, config, seed)
            .expect("invalid disc deployment parameters")
    }

    /// Fallible variant of [`Topology::disc`]: validates the generation
    /// parameters before sampling. For valid inputs the result is
    /// byte-identical to `disc` (same RNG stream, same draws).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTopology`] when `radius_m` is NaN, infinite,
    /// zero or negative, or when `config.p_los` is NaN or outside
    /// `[0, 1]` — previously those inputs sailed through and produced NaN
    /// device positions (every distance, and hence every path loss,
    /// became NaN) or an impossible LoS probability.
    pub fn try_disc(
        n_devices: usize,
        n_gateways: usize,
        radius_m: f64,
        config: &SimConfig,
        seed: u64,
    ) -> Result<Self, SimError> {
        if !radius_m.is_finite() || radius_m <= 0.0 {
            return Err(SimError::InvalidTopology {
                reason: format!("disc radius must be positive and finite, got {radius_m}"),
            });
        }
        if !config.p_los.is_finite() || !(0.0..=1.0).contains(&config.p_los) {
            return Err(SimError::InvalidTopology {
                reason: format!("p_los must lie in [0, 1], got {}", config.p_los),
            });
        }
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x746f_706f_6c6f_6779); // "topology"
        let devices = (0..n_devices)
            .map(|_| {
                // Uniform in a disc: r = R·sqrt(u), θ uniform.
                let r = radius_m * rng.gen::<f64>().sqrt();
                let theta = rng.gen::<f64>() * std::f64::consts::TAU;
                let environment = if rng.gen::<f64>() < config.p_los {
                    LinkEnvironment::LineOfSight
                } else {
                    LinkEnvironment::NonLineOfSight
                };
                DeviceSite {
                    position: Position::new(r * theta.cos(), r * theta.sin()),
                    environment,
                }
            })
            .collect();
        let gateways = grid_gateways(n_gateways, radius_m);
        Ok(Topology {
            devices,
            gateways,
            radius_m,
        })
    }

    /// The device sites.
    #[inline]
    pub fn devices(&self) -> &[DeviceSite] {
        &self.devices
    }

    /// The gateway positions.
    #[inline]
    pub fn gateways(&self) -> &[Position] {
        &self.gateways
    }

    /// The deployment radius in metres.
    #[inline]
    pub fn radius_m(&self) -> f64 {
        self.radius_m
    }

    /// Number of devices.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of gateways.
    #[inline]
    pub fn gateway_count(&self) -> usize {
        self.gateways.len()
    }

    /// Distance from device `i` to its nearest gateway.
    pub fn nearest_gateway_distance(&self, device: usize) -> f64 {
        let p = self.devices[device].position;
        self.gateways
            .iter()
            .map(|g| p.distance_to(g))
            .fold(f64::INFINITY, f64::min)
    }

    /// Linear attenuation from device `i` toward its nearest gateway. A
    /// device's path-loss exponent is the same toward every gateway, so
    /// this is the largest entry of its [`attenuation_row`].
    pub fn nearest_gateway_attenuation(&self, config: &SimConfig, device: usize) -> f64 {
        let beta = config.betas.beta(self.devices[device].environment);
        config
            .path_loss
            .attenuation(self.nearest_gateway_distance(device), beta)
    }
}

/// The linear path-loss attenuation matrix `[device][gateway]`, stored
/// row-major in one contiguous allocation.
///
/// The matrix sits on the hottest loops of the whole stack — the
/// simulator's per-reception loss lookup and the analytical model's
/// per-candidate interference sums — where the former `Vec<Vec<f64>>`
/// representation cost one pointer chase per access and one heap
/// allocation per device. The flat layout makes `at(i, k)` a single
/// indexed load and lets the simulator *reuse* the matrix the model
/// already built (see [`crate::Simulation::with_attenuation`]) instead
/// of re-deriving every `powf` per repetition.
///
/// It is the only attenuation storage in the workspace: the cell-sharded
/// allocator keeps one matrix per cell over the cell's devices and
/// gateway subset (`lora_spatial::TiledAttenuation`), and the dense
/// matrix is the one all-gateway tile. The row layout stays private to
/// this crate; matrices are built only from sites, through
/// [`AttenuationMatrix::from_sites`] or [`attenuation_matrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttenuationMatrix {
    /// Number of device rows (kept explicitly: a zero-gateway matrix
    /// holds no entries but still describes its devices).
    n_devices: usize,
    n_gateways: usize,
    /// Row-major `[device][gateway]` linear attenuations.
    data: Vec<f64>,
}

impl AttenuationMatrix {
    /// Builds the matrix of `sites` against `gateways` serially, one
    /// [`attenuation_row`] per site in iteration order. It builds both the
    /// dense [`attenuation_matrix`] and every cell tile of the sharded
    /// allocator: a tile over a subset of devices and gateways is bitwise
    /// the dense matrix restricted to them.
    pub fn from_sites<'s, I>(config: &SimConfig, sites: I, gateways: &[Position]) -> Self
    where
        I: IntoIterator<Item = &'s DeviceSite>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut matrix = AttenuationMatrix {
            n_devices: 0,
            n_gateways: gateways.len(),
            data: Vec::new(),
        };
        matrix.extend_rows(config, sites, gateways);
        matrix
    }

    /// Number of device rows.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.n_devices
    }

    /// Number of gateway columns.
    #[inline]
    pub fn gateway_count(&self) -> usize {
        self.n_gateways
    }

    /// Linear attenuation between device `i` and gateway `k`.
    #[inline]
    pub fn at(&self, device: usize, gateway: usize) -> f64 {
        debug_assert!(gateway < self.n_gateways);
        self.data[device * self.n_gateways + gateway]
    }

    /// The per-gateway attenuation row of device `i`.
    #[inline]
    pub fn row(&self, device: usize) -> &[f64] {
        &self.data[device * self.n_gateways..(device + 1) * self.n_gateways]
    }

    /// Appends one row per site in `new_sites` (a batch of joining
    /// devices). Each row is produced by the same kernel
    /// ([`attenuation_row`]) as a from-scratch build, so the extended
    /// matrix is bitwise equal to rebuilding over the full population.
    pub fn extend_rows<'s, I>(&mut self, config: &SimConfig, new_sites: I, gateways: &[Position])
    where
        I: IntoIterator<Item = &'s DeviceSite>,
        I::IntoIter: ExactSizeIterator,
    {
        assert_eq!(gateways.len(), self.n_gateways, "gateway count changed");
        let new_sites = new_sites.into_iter();
        self.n_devices += new_sites.len();
        self.data.reserve(new_sites.len() * self.n_gateways);
        for site in new_sites {
            attenuation_row(config, site, gateways, &mut self.data);
        }
    }

    /// Drops the rows of leaving devices in one compaction pass —
    /// the flat-buffer mirror of the population's `retain_kept`
    /// compaction, so row `i` of the result corresponds to the `i`-th
    /// surviving device.
    ///
    /// # Panics
    ///
    /// Panics when the mask length disagrees with the row count.
    pub fn retire_rows(&mut self, leaving: &[bool]) {
        assert_eq!(leaving.len(), self.device_count(), "leave mask shape");
        let g = self.n_gateways;
        let mut write = 0;
        for (i, &leaves) in leaving.iter().enumerate() {
            if leaves {
                continue;
            }
            if write != i {
                self.data.copy_within(i * g..(i + 1) * g, write * g);
            }
            write += 1;
        }
        self.n_devices = write;
        self.data.truncate(write * g);
    }

    /// Recomputes the row of device `i` for an updated site (migration
    /// moves a device across propagation classes without moving it, but
    /// the kernel is cheap enough to recompute unconditionally).
    ///
    /// # Panics
    ///
    /// Panics when `device` is out of range.
    pub fn patch_row(
        &mut self,
        config: &SimConfig,
        device: usize,
        site: &DeviceSite,
        gateways: &[Position],
    ) {
        assert!(device < self.device_count(), "patch_row out of range");
        assert_eq!(gateways.len(), self.n_gateways, "gateway count changed");
        let mut row = Vec::with_capacity(self.n_gateways);
        attenuation_row(config, site, gateways, &mut row);
        self.data[device * self.n_gateways..(device + 1) * self.n_gateways].copy_from_slice(&row);
    }
}

/// Appends the per-gateway linear attenuation row of one device site to
/// `out` — the single kernel shared by the from-scratch
/// [`attenuation_matrix`] build and the incremental row operations
/// ([`AttenuationMatrix::extend_rows`] / [`AttenuationMatrix::patch_row`]),
/// which is what makes "incrementally maintained" and "rebuilt from
/// scratch" bitwise-indistinguishable.
#[inline]
pub fn attenuation_row(
    config: &SimConfig,
    site: &DeviceSite,
    gateways: &[Position],
    out: &mut Vec<f64>,
) {
    let beta = config.betas.beta(site.environment);
    out.extend(gateways.iter().map(|gw| {
        config
            .path_loss
            .attenuation(site.position.distance_to(gw), beta)
    }));
}

/// Builds the linear path-loss attenuation matrix `[device][gateway]`
/// for a deployment — the O(devices × gateways) kernel shared by the
/// simulator and the analytical model. This is the one-tile case of
/// [`AttenuationMatrix::from_sites`]: every device against every gateway,
/// built serially.
pub fn attenuation_matrix(
    config: &crate::config::SimConfig,
    topology: &Topology,
) -> AttenuationMatrix {
    AttenuationMatrix::from_sites(config, topology.devices(), topology.gateways())
}

/// Places `n` gateways on the cross positions of a mesh over a disc of
/// radius `radius_m`: one gateway sits at the centre; otherwise a
/// `ceil(sqrt(n)) × ceil(sqrt(n))` grid is scaled to the inscribed square
/// and the first `n` cells (row-major, centred) are used.
pub fn grid_gateways(n: usize, radius_m: f64) -> Vec<Position> {
    match n {
        0 => Vec::new(),
        1 => vec![Position::new(0.0, 0.0)],
        _ => {
            let side = (n as f64).sqrt().ceil() as usize;
            // Inscribed square of the disc has half-side R/√2; grid cross
            // positions sit at the cell centres so every gateway is inside
            // the coverage.
            let half = radius_m / std::f64::consts::SQRT_2;
            let step = 2.0 * half / side as f64;
            let mut out = Vec::with_capacity(n);
            'outer: for row in 0..side {
                for col in 0..side {
                    if out.len() == n {
                        break 'outer;
                    }
                    let x = -half + step * (col as f64 + 0.5);
                    let y = -half + step * (row as f64 + 0.5);
                    out.push(Position::new(x, y));
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_stay_inside_disc() {
        let config = SimConfig::default();
        let topo = Topology::disc(500, 3, 5_000.0, &config, 1);
        let origin = Position::default();
        for d in topo.devices() {
            assert!(d.position.distance_to(&origin) <= 5_000.0 + 1e-9);
        }
    }

    #[test]
    fn disc_sampling_is_roughly_uniform() {
        // Half the area of a disc lies beyond r = R/√2: check the split.
        let config = SimConfig::default();
        let topo = Topology::disc(4_000, 1, 1_000.0, &config, 2);
        let origin = Position::default();
        let outer = topo
            .devices()
            .iter()
            .filter(|d| d.position.distance_to(&origin) > 1_000.0 / std::f64::consts::SQRT_2)
            .count();
        let frac = outer as f64 / 4_000.0;
        assert!((frac - 0.5).abs() < 0.03, "outer fraction {frac}");
    }

    #[test]
    fn single_gateway_is_central() {
        assert_eq!(grid_gateways(1, 5_000.0), vec![Position::new(0.0, 0.0)]);
    }

    #[test]
    fn grid_gateways_inside_disc_and_distinct() {
        for n in [2, 3, 4, 5, 9, 16, 25] {
            let gws = grid_gateways(n, 5_000.0);
            assert_eq!(gws.len(), n);
            let origin = Position::default();
            for (i, g) in gws.iter().enumerate() {
                assert!(g.distance_to(&origin) <= 5_000.0, "n={n} gw={i}");
                for other in &gws[i + 1..] {
                    assert!(g.distance_to(other) > 1.0, "n={n}: coincident gateways");
                }
            }
        }
    }

    #[test]
    fn four_gateways_form_a_symmetric_square() {
        let gws = grid_gateways(4, 1_000.0);
        let origin = Position::default();
        let d0 = gws[0].distance_to(&origin);
        for g in &gws {
            assert!((g.distance_to(&origin) - d0).abs() < 1e-9);
        }
    }

    #[test]
    fn topology_seed_is_reproducible() {
        let config = SimConfig::default();
        let a = Topology::disc(100, 3, 5_000.0, &config, 7);
        let b = Topology::disc(100, 3, 5_000.0, &config, 7);
        assert_eq!(a, b);
        let c = Topology::disc(100, 3, 5_000.0, &config, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn p_los_controls_environment_mix() {
        let mut config = SimConfig {
            p_los: 1.0,
            ..SimConfig::default()
        };
        let all_los = Topology::disc(200, 1, 1_000.0, &config, 3);
        assert!(all_los
            .devices()
            .iter()
            .all(|d| d.environment == LinkEnvironment::LineOfSight));
        config.p_los = 0.0;
        let all_nlos = Topology::disc(200, 1, 1_000.0, &config, 3);
        assert!(all_nlos
            .devices()
            .iter()
            .all(|d| d.environment == LinkEnvironment::NonLineOfSight));
    }

    #[test]
    fn try_disc_rejects_degenerate_radii() {
        let config = SimConfig::default();
        for radius in [0.0, -5_000.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let r = Topology::try_disc(10, 1, radius, &config, 1);
            assert!(
                matches!(r, Err(SimError::InvalidTopology { .. })),
                "radius {radius} must be rejected"
            );
        }
    }

    #[test]
    fn try_disc_rejects_out_of_range_p_los() {
        for p_los in [-0.1, 1.1, f64::NAN] {
            let config = SimConfig {
                p_los,
                ..SimConfig::default()
            };
            let r = Topology::try_disc(10, 1, 1_000.0, &config, 1);
            assert!(
                matches!(r, Err(SimError::InvalidTopology { .. })),
                "p_los {p_los} must be rejected"
            );
        }
    }

    #[test]
    fn try_disc_matches_disc_for_valid_inputs() {
        let config = SimConfig::default();
        let fallible = Topology::try_disc(50, 3, 4_000.0, &config, 13).unwrap();
        let infallible = Topology::disc(50, 3, 4_000.0, &config, 13);
        assert_eq!(fallible, infallible);
        // Every generated position must be a real number.
        assert!(fallible
            .devices()
            .iter()
            .all(|d| d.position.x.is_finite() && d.position.y.is_finite()));
    }

    #[test]
    #[should_panic(expected = "invalid disc deployment parameters")]
    fn disc_panics_loudly_on_nan_radius() {
        let config = SimConfig::default();
        let _ = Topology::disc(10, 1, f64::NAN, &config, 1);
    }

    #[test]
    fn extend_rows_matches_from_scratch_build() {
        let config = SimConfig::default();
        let full = Topology::disc(40, 3, 5_000.0, &config, 11);
        let want = attenuation_matrix(&config, &full);
        let head = Topology::from_sites(
            full.devices()[..25].to_vec(),
            full.gateways().to_vec(),
            5_000.0,
        );
        let mut got = attenuation_matrix(&config, &head);
        got.extend_rows(&config, &full.devices()[25..], full.gateways());
        assert_eq!(got, want);
    }

    #[test]
    fn retire_rows_matches_from_scratch_build() {
        let config = SimConfig::default();
        let full = Topology::disc(40, 3, 5_000.0, &config, 11);
        let mut got = attenuation_matrix(&config, &full);
        let leaving: Vec<bool> = (0..40).map(|i| i % 3 == 1).collect();
        got.retire_rows(&leaving);
        let kept: Vec<DeviceSite> = full
            .devices()
            .iter()
            .zip(&leaving)
            .filter(|(_, &l)| !l)
            .map(|(s, _)| *s)
            .collect();
        let survivors = Topology::from_sites(kept, full.gateways().to_vec(), 5_000.0);
        assert_eq!(got, attenuation_matrix(&config, &survivors));
    }

    #[test]
    fn patch_row_matches_from_scratch_build() {
        let config = SimConfig::default();
        let full = Topology::disc(40, 3, 5_000.0, &config, 11);
        let mut got = attenuation_matrix(&config, &full);
        let mut sites = full.devices().to_vec();
        // Flip a device's propagation class, as a Migrate event does.
        sites[7].environment = match sites[7].environment {
            LinkEnvironment::LineOfSight => LinkEnvironment::NonLineOfSight,
            LinkEnvironment::NonLineOfSight => LinkEnvironment::LineOfSight,
        };
        got.patch_row(&config, 7, &sites[7], full.gateways());
        let moved = Topology::from_sites(sites, full.gateways().to_vec(), 5_000.0);
        assert_eq!(got, attenuation_matrix(&config, &moved));
    }

    #[test]
    fn nearest_gateway_distance_is_the_row_minimum() {
        let config = SimConfig::default();
        let topo = Topology::disc(10, 4, 2_000.0, &config, 5);
        for (i, site) in topo.devices().iter().enumerate() {
            let nearest = topo
                .gateways()
                .iter()
                .map(|g| site.position.distance_to(g))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                topo.nearest_gateway_distance(i).to_bits(),
                nearest.to_bits()
            );
        }
    }
}
