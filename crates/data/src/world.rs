//! The generative world model: scene-conditioned styles and mixing matrices.
//!
//! Everything the paper needs from real dashcam footage is induced here:
//! a scene's *style* (a latent vector composed from per-attribute
//! embeddings, so semantically close scenes are close in feature space), a
//! scene's *mixing matrix* (how ground-truth objects project into observed
//! features — the part a detector must invert, and the part that varies
//! across scenes), and scene-dependent photometrics and object statistics.

use anole_tensor::{rng_from_seed, split_seed, Matrix, Seed, StdRng};

use crate::{Location, SceneAttributes, TimeOfDay, Weather};

/// Detection grid dimensions: frames are divided into `rows × cols` cells
/// and detectors predict per-cell occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridSpec {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
}

anole_json::json_struct!(GridSpec { rows, cols });

impl GridSpec {
    /// Total number of cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

impl Default for GridSpec {
    /// A 4×4 grid (16 cells).
    fn default() -> Self {
        Self { rows: 4, cols: 4 }
    }
}

/// Tunables of the generative world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldConfig {
    /// Dimensionality of observed frame features.
    pub feature_dim: usize,
    /// Detection grid.
    pub grid: GridSpec,
    /// Scale of the scene-style component of features.
    pub style_strength: f32,
    /// Standard deviation of per-frame observation noise.
    pub noise_std: f32,
    /// Standard deviation of the per-clip feature offset.
    pub clip_offset_std: f32,
    /// AR(1) correlation of the observation noise across frames.
    pub temporal_rho: f32,
    /// Per-frame survival probability of an object.
    pub object_persistence: f32,
    /// Scale of the scene-specific perturbation of the mixing matrix,
    /// relative to the shared base mixing (0 = every scene identical).
    pub scene_mixing_strength: f32,
}

anole_json::json_struct!(WorldConfig {
    feature_dim,
    grid,
    style_strength,
    noise_std,
    clip_offset_std,
    temporal_rho,
    object_persistence,
    scene_mixing_strength,
});

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            feature_dim: 32,
            grid: GridSpec::default(),
            style_strength: 0.5,
            noise_std: 0.18,
            clip_offset_std: 0.08,
            temporal_rho: 0.9,
            object_persistence: 0.92,
            scene_mixing_strength: 4.0,
        }
    }
}

/// Everything scene-dependent about generation, derived deterministically
/// from the world seed and a scene's attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneStyle {
    /// Object-to-feature mixing matrix (`cells × feature_dim`).
    pub mixing: Matrix,
    /// Latent style vector added to every frame feature (`feature_dim`).
    pub latent: Vec<f32>,
    /// Mean image brightness of the scene, in `[0, 1]`.
    pub brightness: f32,
    /// Mean image contrast of the scene, in `[0, 1]`.
    pub contrast: f32,
    /// Expected number of visible objects per frame (before dataset density
    /// scaling).
    pub object_rate: f32,
    /// Normalized spatial prior over grid cells for object placement.
    pub spatial_prior: Vec<f32>,
}

impl SceneStyle {
    /// Signal gain applied to the object component: poor light and low
    /// contrast attenuate the evidence a detector sees, which is what makes
    /// night/tunnel/fog scenes hard.
    pub fn signal_gain(&self) -> f32 {
        0.35 + 0.65 * self.brightness.sqrt() * (0.4 + 0.6 * self.contrast)
    }
}

/// The deterministic generative world. All per-attribute embeddings and
/// mixing perturbations are fixed by the construction seed, so the same
/// `(config, seed)` pair always describes the same world.
#[derive(Debug, Clone)]
pub struct WorldModel {
    config: WorldConfig,
    base_mixing: Matrix,
    weather_mixing: Vec<Matrix>,
    location_mixing: Vec<Matrix>,
    time_mixing: Vec<Matrix>,
    weather_style: Vec<Vec<f32>>,
    location_style: Vec<Vec<f32>>,
    time_style: Vec<Vec<f32>>,
    location_prior: Vec<Vec<f32>>,
}

impl WorldModel {
    /// Builds the world from a configuration and seed.
    pub fn new(config: WorldConfig, seed: Seed) -> Self {
        let cells = config.grid.cells();
        let d = config.feature_dim;
        let col_scale = 1.0 / (cells as f32).sqrt();

        let mut rng = rng_from_seed(split_seed(seed, 0));
        let base_mixing = Matrix::random_normal(cells, d, col_scale, &mut rng);

        let perturb = |rng: &mut StdRng, n: usize| -> Vec<Matrix> {
            (0..n)
                .map(|_| {
                    Matrix::random_normal(
                        cells,
                        d,
                        col_scale * config.scene_mixing_strength / 1.7,
                        rng,
                    )
                })
                .collect()
        };
        let mut rng = rng_from_seed(split_seed(seed, 1));
        let weather_mixing = perturb(&mut rng, Weather::ALL.len());
        let location_mixing = perturb(&mut rng, Location::ALL.len());
        let time_mixing = perturb(&mut rng, TimeOfDay::ALL.len());

        let styles = |rng: &mut StdRng, n: usize| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| Matrix::random_normal(1, d, 1.0, rng).into_vec())
                .collect()
        };
        let mut rng = rng_from_seed(split_seed(seed, 2));
        let weather_style = styles(&mut rng, Weather::ALL.len());
        let location_style = styles(&mut rng, Location::ALL.len());
        let time_style = styles(&mut rng, TimeOfDay::ALL.len());

        // Per-location spatial priors: a smooth bump around a
        // location-specific focus cell, so highways concentrate objects in
        // lane cells while urban scenes spread them out.
        let mut rng = rng_from_seed(split_seed(seed, 3));
        let location_prior = Location::ALL
            .iter()
            .map(|loc| {
                let focus_row = rng.usize(0..config.grid.rows) as f32;
                let focus_col = rng.usize(0..config.grid.cols) as f32;
                let spread = match loc {
                    Location::Urban | Location::Residential => 2.5,
                    Location::ParkingLot | Location::GasStation => 1.8,
                    _ => 1.0,
                };
                let mut prior = Vec::with_capacity(cells);
                for r in 0..config.grid.rows {
                    for c in 0..config.grid.cols {
                        let dr = r as f32 - focus_row;
                        let dc = c as f32 - focus_col;
                        prior.push((-(dr * dr + dc * dc) / (2.0 * spread * spread)).exp());
                    }
                }
                let sum: f32 = prior.iter().sum();
                prior.iter_mut().for_each(|p| *p /= sum);
                prior
            })
            .collect();

        Self {
            config,
            base_mixing,
            weather_mixing,
            location_mixing,
            time_mixing,
            weather_style,
            location_style,
            time_style,
            location_prior,
        }
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Mean brightness of a scene, in `[0, 1]`.
    fn brightness_of(&self, attrs: &SceneAttributes) -> f32 {
        let time: f32 = match attrs.time {
            TimeOfDay::Daytime => 0.75,
            TimeOfDay::DawnDusk => 0.48,
            TimeOfDay::Night => 0.22,
        };
        let weather: f32 = match attrs.weather {
            Weather::Clear => 0.08,
            Weather::Overcast => -0.05,
            Weather::Rainy => -0.10,
            Weather::Snowy => 0.05,
            Weather::Foggy => -0.04,
        };
        let location: f32 = match attrs.location {
            Location::Tunnel => -0.25,
            Location::Bridge => 0.02,
            _ => 0.0,
        };
        (time + weather + location).clamp(0.05, 0.98)
    }

    /// Mean contrast of a scene, in `[0, 1]`.
    fn contrast_of(&self, attrs: &SceneAttributes) -> f32 {
        let weather: f32 = match attrs.weather {
            Weather::Clear => 0.72,
            Weather::Overcast => 0.55,
            Weather::Rainy => 0.48,
            Weather::Snowy => 0.42,
            Weather::Foggy => 0.28,
        };
        let time: f32 = match attrs.time {
            TimeOfDay::Daytime => 0.06,
            TimeOfDay::DawnDusk => 0.0,
            TimeOfDay::Night => -0.08,
        };
        let location: f32 = match attrs.location {
            Location::Tunnel => 0.10, // artificial lighting: harsh contrast
            _ => 0.0,
        };
        (weather + time + location).clamp(0.05, 0.95)
    }

    /// Expected visible objects per frame for a scene (before dataset
    /// density scaling).
    pub fn object_rate_of(&self, attrs: &SceneAttributes) -> f32 {
        let base = match attrs.location {
            Location::Highway => 3.2,
            Location::Urban => 7.5,
            Location::Residential => 4.5,
            Location::ParkingLot => 6.0,
            Location::Tunnel => 2.2,
            Location::GasStation => 3.6,
            Location::Bridge => 3.0,
            Location::TollBooth => 5.0,
        };
        let time: f32 = match attrs.time {
            TimeOfDay::Daytime => 1.0,
            TimeOfDay::DawnDusk => 0.9,
            TimeOfDay::Night => 0.7,
        };
        base * time
    }

    /// Derives the full per-scene generation style.
    pub fn scene_style(&self, attrs: &SceneAttributes) -> SceneStyle {
        let d = self.config.feature_dim;
        let mut mixing = self.base_mixing.clone();
        mixing
            .axpy(1.0, &self.weather_mixing[attrs.weather.index()])
            .expect("same shape");
        mixing
            .axpy(1.0, &self.location_mixing[attrs.location.index()])
            .expect("same shape");
        mixing
            .axpy(1.0, &self.time_mixing[attrs.time.index()])
            .expect("same shape");

        let mut latent = vec![0.0f32; d];
        for component in [
            &self.weather_style[attrs.weather.index()],
            &self.location_style[attrs.location.index()],
            &self.time_style[attrs.time.index()],
        ] {
            for (a, &b) in latent.iter_mut().zip(component.iter()) {
                *a += b;
            }
        }
        let scale = self.config.style_strength / 3.0f32.sqrt();
        latent.iter_mut().for_each(|v| *v *= scale);

        SceneStyle {
            mixing,
            latent,
            brightness: self.brightness_of(attrs),
            contrast: self.contrast_of(attrs),
            object_rate: self.object_rate_of(attrs),
            spatial_prior: self.location_prior[attrs.location.index()].clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> WorldModel {
        WorldModel::new(WorldConfig::default(), Seed(99))
    }

    fn attrs(w: Weather, l: Location, t: TimeOfDay) -> SceneAttributes {
        SceneAttributes::new(w, l, t)
    }

    #[test]
    fn construction_is_deterministic() {
        let a = world();
        let b = world();
        let s = attrs(Weather::Rainy, Location::Urban, TimeOfDay::Night);
        assert_eq!(a.scene_style(&s), b.scene_style(&s));
    }

    #[test]
    fn different_seeds_give_different_worlds() {
        let a = WorldModel::new(WorldConfig::default(), Seed(1));
        let b = WorldModel::new(WorldConfig::default(), Seed(2));
        let s = attrs(Weather::Clear, Location::Highway, TimeOfDay::Daytime);
        assert_ne!(a.scene_style(&s).mixing, b.scene_style(&s).mixing);
    }

    #[test]
    fn night_is_darker_than_day_and_tunnel_darker_still() {
        let w = world();
        let day = w.brightness_of(&attrs(Weather::Clear, Location::Urban, TimeOfDay::Daytime));
        let night = w.brightness_of(&attrs(Weather::Clear, Location::Urban, TimeOfDay::Night));
        let tunnel = w.brightness_of(&attrs(Weather::Clear, Location::Tunnel, TimeOfDay::Night));
        assert!(day > night);
        assert!(night > tunnel);
    }

    #[test]
    fn fog_kills_contrast() {
        let w = world();
        let clear = w.contrast_of(&attrs(Weather::Clear, Location::Urban, TimeOfDay::Daytime));
        let foggy = w.contrast_of(&attrs(Weather::Foggy, Location::Urban, TimeOfDay::Daytime));
        assert!(clear > foggy + 0.2);
    }

    #[test]
    fn urban_has_more_objects_than_tunnel() {
        let w = world();
        let urban = w.object_rate_of(&attrs(Weather::Clear, Location::Urban, TimeOfDay::Daytime));
        let tunnel = w.object_rate_of(&attrs(Weather::Clear, Location::Tunnel, TimeOfDay::Daytime));
        assert!(urban > 2.0 * tunnel);
    }

    #[test]
    fn signal_gain_orders_scenes_by_difficulty() {
        let w = world();
        let easy = w.scene_style(&attrs(Weather::Clear, Location::Urban, TimeOfDay::Daytime));
        let hard = w.scene_style(&attrs(Weather::Foggy, Location::Tunnel, TimeOfDay::Night));
        assert!(easy.signal_gain() > hard.signal_gain());
        assert!(hard.signal_gain() > 0.3, "gain floor keeps scenes learnable");
    }

    #[test]
    fn related_scenes_have_closer_styles_than_unrelated() {
        let w = world();
        let a = w.scene_style(&attrs(Weather::Rainy, Location::Highway, TimeOfDay::Night));
        let b = w.scene_style(&attrs(Weather::Rainy, Location::Highway, TimeOfDay::DawnDusk));
        let c = w.scene_style(&attrs(Weather::Clear, Location::ParkingLot, TimeOfDay::Daytime));
        let d_ab = anole_tensor::l2_distance(&a.latent, &b.latent);
        let d_ac = anole_tensor::l2_distance(&a.latent, &c.latent);
        assert!(d_ab < d_ac, "share-2-attribute scenes closer: {d_ab} vs {d_ac}");
    }

    #[test]
    fn related_scenes_have_closer_mixing_matrices() {
        let w = world();
        let a = w.scene_style(&attrs(Weather::Rainy, Location::Highway, TimeOfDay::Night));
        let b = w.scene_style(&attrs(Weather::Rainy, Location::Highway, TimeOfDay::Daytime));
        let c = w.scene_style(&attrs(Weather::Snowy, Location::Urban, TimeOfDay::Daytime));
        let d_ab = (&a.mixing - &b.mixing).frobenius_norm();
        let d_ac = (&a.mixing - &c.mixing).frobenius_norm();
        assert!(d_ab < d_ac);
    }

    #[test]
    fn spatial_priors_are_normalized_distributions() {
        let w = world();
        for loc in Location::ALL {
            let s = w.scene_style(&attrs(Weather::Clear, loc, TimeOfDay::Daytime));
            let sum: f32 = s.spatial_prior.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "{loc:?} prior sums to {sum}");
            assert!(s.spatial_prior.iter().all(|&p| p >= 0.0));
            assert_eq!(s.spatial_prior.len(), w.config().grid.cells());
        }
    }

    #[test]
    fn grid_spec_cells() {
        assert_eq!(GridSpec { rows: 3, cols: 5 }.cells(), 15);
        assert_eq!(GridSpec::default().cells(), 16);
    }
}
