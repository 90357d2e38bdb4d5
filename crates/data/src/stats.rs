//! Dataset diversity statistics (paper Fig. 5).

use anole_tensor::{empirical_cdf, CdfPoint};

use crate::DrivingDataset;

/// Empirical CDFs of per-frame statistics across the whole dataset, the
/// quantities Fig. 5 uses to argue the dataset is diverse.
#[derive(Debug, Clone, PartialEq)]
pub struct DiversityReport {
    /// CDF of image brightness.
    pub brightness: Vec<CdfPoint>,
    /// CDF of image contrast.
    pub contrast: Vec<CdfPoint>,
    /// CDF of the number of objects per frame.
    pub object_count: Vec<CdfPoint>,
    /// CDF of the per-frame object area ratio.
    pub object_area: Vec<CdfPoint>,
}

impl DiversityReport {
    /// Value range (max − min) of a CDF, a scalar diversity measure.
    #[cfg(test)]
    fn spread(cdf: &[CdfPoint]) -> f32 {
        match (cdf.first(), cdf.last()) {
            (Some(a), Some(b)) => b.value - a.value,
            _ => 0.0,
        }
    }
}

/// Computes the Fig. 5 CDFs at `steps` quantiles over every frame of the
/// dataset.
pub fn dataset_diversity(dataset: &DrivingDataset, steps: usize) -> DiversityReport {
    let mut brightness = Vec::with_capacity(dataset.frame_count());
    let mut contrast = Vec::with_capacity(dataset.frame_count());
    let mut object_count = Vec::with_capacity(dataset.frame_count());
    let mut object_area = Vec::with_capacity(dataset.frame_count());
    for clip in dataset.clips() {
        for frame in &clip.frames {
            brightness.push(frame.meta.brightness);
            contrast.push(frame.meta.contrast);
            object_count.push(frame.meta.object_count as f32);
            object_area.push(frame.meta.object_area);
        }
    }
    DiversityReport {
        brightness: empirical_cdf(&brightness, steps),
        contrast: empirical_cdf(&contrast, steps),
        object_count: empirical_cdf(&object_count, steps),
        object_area: empirical_cdf(&object_area, steps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetConfig;
    use anole_tensor::Seed;

    #[test]
    fn report_shows_diversity() {
        let ds = DrivingDataset::generate(&DatasetConfig::small(), Seed(13));
        let report = dataset_diversity(&ds, 20);
        assert_eq!(report.brightness.len(), 20);
        // Brightness must span day vs night scenes.
        assert!(DiversityReport::spread(&report.brightness) > 0.2);
        assert!(DiversityReport::spread(&report.contrast) > 0.1);
        assert!(DiversityReport::spread(&report.object_count) >= 3.0);
        assert!(DiversityReport::spread(&report.object_area) > 0.03);
        // CDFs are in sane ranges.
        assert!(report.brightness.iter().all(|p| (0.0..=1.0).contains(&p.value)));
        assert!(report.object_area.iter().all(|p| (0.0..=1.0).contains(&p.value)));
    }

    #[test]
    fn spread_of_empty_cdf_is_zero() {
        assert_eq!(DiversityReport::spread(&[]), 0.0);
    }
}
