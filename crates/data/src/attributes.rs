//! Semantic attributes of driving scenes (paper §IV-A1).
//!
//! The paper defines semantic scenes as combinations of fine-grained
//! attributes in three orthogonal dimensions: 5 weather values × 8 location
//! values × 3 time-of-day values = 120 semantic scenes.

/// Weather condition of a clip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Weather {
    /// Clear skies.
    Clear,
    /// Overcast.
    Overcast,
    /// Rain.
    Rainy,
    /// Snow.
    Snowy,
    /// Fog.
    Foggy,
}

impl Weather {
    /// All weather values, in index order.
    pub const ALL: [Weather; 5] = [
        Weather::Clear,
        Weather::Overcast,
        Weather::Rainy,
        Weather::Snowy,
        Weather::Foggy,
    ];

    /// Stable index in `0..5`.
    pub fn index(&self) -> usize {
        Self::ALL.iter().position(|w| w == self).expect("member of ALL")
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Weather::Clear => "clear",
            Weather::Overcast => "overcast",
            Weather::Rainy => "rainy",
            Weather::Snowy => "snowy",
            Weather::Foggy => "foggy",
        }
    }
}

/// Road environment of a clip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Location {
    /// Limited-access highway.
    Highway,
    /// Dense urban street.
    Urban,
    /// Residential street.
    Residential,
    /// Parking lot.
    ParkingLot,
    /// Tunnel.
    Tunnel,
    /// Gas station.
    GasStation,
    /// Bridge.
    Bridge,
    /// Toll booth.
    TollBooth,
}

impl Location {
    /// All location values, in index order.
    pub const ALL: [Location; 8] = [
        Location::Highway,
        Location::Urban,
        Location::Residential,
        Location::ParkingLot,
        Location::Tunnel,
        Location::GasStation,
        Location::Bridge,
        Location::TollBooth,
    ];

    /// Stable index in `0..8`.
    pub fn index(&self) -> usize {
        Self::ALL.iter().position(|l| l == self).expect("member of ALL")
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Location::Highway => "highway",
            Location::Urban => "urban",
            Location::Residential => "residential",
            Location::ParkingLot => "parking lot",
            Location::Tunnel => "tunnel",
            Location::GasStation => "gas station",
            Location::Bridge => "bridge",
            Location::TollBooth => "toll booth",
        }
    }
}

/// Time of day of a clip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimeOfDay {
    /// Full daylight.
    Daytime,
    /// Dawn or dusk.
    DawnDusk,
    /// Night.
    Night,
}

impl TimeOfDay {
    /// All time values, in index order.
    pub const ALL: [TimeOfDay; 3] = [TimeOfDay::Daytime, TimeOfDay::DawnDusk, TimeOfDay::Night];

    /// Stable index in `0..3`.
    pub fn index(&self) -> usize {
        Self::ALL.iter().position(|t| t == self).expect("member of ALL")
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            TimeOfDay::Daytime => "daytime",
            TimeOfDay::DawnDusk => "dawn/dusk",
            TimeOfDay::Night => "night",
        }
    }
}

/// Number of semantic scenes: 5 weather × 8 location × 3 time = 120.
pub const SEMANTIC_SCENE_COUNT: usize = Weather::ALL.len() * Location::ALL.len() * TimeOfDay::ALL.len();

/// The semantic attributes of a scene (one combination = one semantic scene).
///
/// # Examples
///
/// ```
/// use anole_data::{Location, SceneAttributes, TimeOfDay, Weather};
///
/// let scene = SceneAttributes::new(Weather::Rainy, Location::Highway, TimeOfDay::Night);
/// assert_eq!(SceneAttributes::from_scene_index(scene.scene_index()), scene);
/// assert_eq!(scene.to_string(), "rainy highway at night");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SceneAttributes {
    /// Weather dimension.
    pub weather: Weather,
    /// Location dimension.
    pub location: Location,
    /// Time-of-day dimension.
    pub time: TimeOfDay,
}

impl SceneAttributes {
    /// Bundles the three attribute dimensions.
    pub fn new(weather: Weather, location: Location, time: TimeOfDay) -> Self {
        Self {
            weather,
            location,
            time,
        }
    }

    /// The semantic scene index in `0..SEMANTIC_SCENE_COUNT`.
    pub fn scene_index(&self) -> usize {
        (self.weather.index() * Location::ALL.len() + self.location.index()) * TimeOfDay::ALL.len()
            + self.time.index()
    }

    /// Inverse of [`SceneAttributes::scene_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= SEMANTIC_SCENE_COUNT`.
    pub fn from_scene_index(index: usize) -> Self {
        assert!(index < SEMANTIC_SCENE_COUNT, "scene index out of range");
        let time = TimeOfDay::ALL[index % TimeOfDay::ALL.len()];
        let rest = index / TimeOfDay::ALL.len();
        let location = Location::ALL[rest % Location::ALL.len()];
        let weather = Weather::ALL[rest / Location::ALL.len()];
        Self {
            weather,
            location,
            time,
        }
    }

    /// Iterates over all 120 semantic scenes in index order.
    pub fn all() -> impl Iterator<Item = SceneAttributes> {
        (0..SEMANTIC_SCENE_COUNT).map(SceneAttributes::from_scene_index)
    }
}

impl std::fmt::Display for SceneAttributes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} at {}",
            self.weather.name(),
            self.location.name(),
            self.time.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_invertible() {
        let mut seen = [false; SEMANTIC_SCENE_COUNT];
        for w in Weather::ALL {
            for l in Location::ALL {
                for t in TimeOfDay::ALL {
                    let s = SceneAttributes::new(w, l, t);
                    let idx = s.scene_index();
                    assert!(idx < SEMANTIC_SCENE_COUNT);
                    assert!(!seen[idx], "duplicate index {idx}");
                    seen[idx] = true;
                    assert_eq!(SceneAttributes::from_scene_index(idx), s);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn all_iterates_every_scene_once() {
        let scenes: Vec<SceneAttributes> = SceneAttributes::all().collect();
        assert_eq!(scenes.len(), 120);
        for (i, s) in scenes.iter().enumerate() {
            assert_eq!(s.scene_index(), i);
        }
    }

    #[test]
    fn attribute_indices_match_all_order() {
        for (i, w) in Weather::ALL.iter().enumerate() {
            assert_eq!(w.index(), i);
        }
        for (i, l) in Location::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
        for (i, t) in TimeOfDay::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "scene index out of range")]
    fn from_scene_index_rejects_out_of_range() {
        let _ = SceneAttributes::from_scene_index(SEMANTIC_SCENE_COUNT);
    }

    #[test]
    fn display_is_readable() {
        let s = SceneAttributes::new(Weather::Snowy, Location::TollBooth, TimeOfDay::DawnDusk);
        assert_eq!(s.to_string(), "snowy toll booth at dawn/dusk");
    }
}
