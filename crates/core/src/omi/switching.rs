//! Scene-duration analysis of the online run (paper Fig. 7a).
//!
//! A "scene", from the decision model's point of view, is a maximal run of
//! consecutive frames served by the same compressed model. Fig. 7a shows
//! these runs are short on fast-changing streams (mean < 20 frames, 80%
//! under 40), which is why the model cache matters.

/// Run lengths of consecutive identical entries in a usage log.
fn scene_durations(usage_log: &[usize]) -> Vec<usize> {
    let mut durations = Vec::new();
    let mut iter = usage_log.iter();
    let Some(mut current) = iter.next() else {
        return durations;
    };
    let mut run = 1usize;
    for model in iter {
        if model == current {
            run += 1;
        } else {
            durations.push(run);
            current = model;
            run = 1;
        }
    }
    durations.push(run);
    durations
}

/// Summary statistics of scene durations (the boxplot of Fig. 7a).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchStats {
    /// Number of model switches (runs − 1).
    pub switches: usize,
    /// Mean run length in frames.
    pub mean: f32,
    /// Median run length.
    pub median: usize,
    /// 80th-percentile run length.
    pub p80: usize,
    /// Longest run.
    pub max: usize,
}

impl SwitchStats {
    /// Computes the statistics of a usage log.
    ///
    /// Returns an all-zero summary for an empty log.
    pub fn of(usage_log: &[usize]) -> Self {
        let mut durations = scene_durations(usage_log);
        if durations.is_empty() {
            return Self {
                switches: 0,
                mean: 0.0,
                median: 0,
                p80: 0,
                max: 0,
            };
        }
        durations.sort_unstable();
        let n = durations.len();
        Self {
            switches: n - 1,
            mean: durations.iter().sum::<usize>() as f32 / n as f32,
            median: durations[n / 2],
            p80: durations[(n * 8 / 10).min(n - 1)],
            max: durations[n - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_of_empty_log() {
        assert!(scene_durations(&[]).is_empty());
        let s = SwitchStats::of(&[]);
        assert_eq!(s.switches, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn durations_of_constant_log() {
        assert_eq!(scene_durations(&[3, 3, 3, 3]), vec![4]);
        let s = SwitchStats::of(&[3, 3, 3, 3]);
        assert_eq!(s.switches, 0);
        assert_eq!(s.max, 4);
        assert_eq!(s.mean, 4.0);
    }

    #[test]
    fn durations_of_alternating_log() {
        assert_eq!(scene_durations(&[0, 1, 0, 1]), vec![1, 1, 1, 1]);
        let s = SwitchStats::of(&[0, 1, 0, 1]);
        assert_eq!(s.switches, 3);
        assert_eq!(s.median, 1);
    }

    #[test]
    fn durations_sum_to_log_length() {
        let log = [5, 5, 1, 2, 2, 2, 5, 1, 1, 1];
        let durations = scene_durations(&log);
        assert_eq!(durations.iter().sum::<usize>(), log.len());
        assert_eq!(durations, vec![2, 1, 3, 1, 3]);
    }

    #[test]
    fn percentiles_are_ordered() {
        let log: Vec<usize> = (0..100).map(|i| i / 7).collect();
        let s = SwitchStats::of(&log);
        assert!(s.median as f32 <= s.mean + 1.0);
        assert!(s.median <= s.p80);
        assert!(s.p80 <= s.max);
    }
}
