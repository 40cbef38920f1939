//! Application profiles: sequences of GENERAL / LIBRARY phases.
//!
//! The model reasons about one epoch at a time; the simulator and the
//! composite runtime unfold a whole [`ApplicationProfile`] — a sequence of
//! [`Epoch`]s, each made of a GENERAL phase followed by a LIBRARY phase
//! (either of which may be empty).

use crate::error::{ensure_non_negative, Result};
use crate::params::ModelParams;

/// Which kind of phase a work segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// ABFT-unaware application code.
    General,
    /// ABFT-capable library call.
    Library,
}

/// One epoch: a GENERAL phase followed by a LIBRARY phase (durations are
/// failure-free work, in seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Epoch {
    /// Failure-free duration of the GENERAL phase.
    pub general: f64,
    /// Failure-free duration of the LIBRARY phase.
    pub library: f64,
}

impl Epoch {
    /// Creates an epoch, validating that both durations are non-negative.
    pub fn new(general: f64, library: f64) -> Result<Self> {
        ensure_non_negative("general", general)?;
        ensure_non_negative("library", library)?;
        Ok(Self { general, library })
    }

    /// Total failure-free duration of the epoch.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.general + self.library
    }

    /// Fraction of the epoch spent in the LIBRARY phase.
    pub fn alpha(&self) -> f64 {
        if self.duration() == 0.0 {
            0.0
        } else {
            self.library / self.duration()
        }
    }
}

/// A work segment produced by unfolding a profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Index of the epoch the segment belongs to.
    pub epoch: usize,
    /// Kind of phase.
    pub kind: PhaseKind,
    /// Failure-free duration of the segment.
    pub duration: f64,
}

/// A full application: a sequence of epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationProfile {
    epochs: Vec<Epoch>,
}

impl ApplicationProfile {
    /// Builds a profile from explicit epochs.
    pub fn new(epochs: Vec<Epoch>) -> Self {
        Self { epochs }
    }

    /// Builds a profile of `count` identical epochs.
    pub fn uniform(count: usize, general: f64, library: f64) -> Result<Self> {
        let epoch = Epoch::new(general, library)?;
        Ok(Self {
            epochs: vec![epoch; count],
        })
    }

    /// Builds a single-epoch profile matching a set of model parameters.
    pub fn from_params(params: &ModelParams) -> Self {
        Self {
            epochs: vec![Epoch {
                general: params.general_duration(),
                library: params.library_duration(),
            }],
        }
    }

    /// Builds an `epochs`-epoch profile matching a set of model parameters
    /// (each epoch carries `1/epochs` of the durations).
    pub fn from_params_repeated(params: &ModelParams, epochs: usize) -> Self {
        let epochs = epochs.max(1);
        let scale = 1.0 / epochs as f64;
        Self {
            epochs: vec![
                Epoch {
                    general: params.general_duration() * scale,
                    library: params.library_duration() * scale,
                };
                epochs
            ],
        }
    }

    /// The epochs.
    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// Number of epochs.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Whether the profile has no epoch.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Total failure-free duration.
    pub fn total_duration(&self) -> f64 {
        self.epochs.iter().map(Epoch::duration).sum()
    }

    /// Total failure-free LIBRARY time.
    pub fn total_library(&self) -> f64 {
        self.epochs.iter().map(|e| e.library).sum()
    }

    /// Overall fraction of time spent in LIBRARY phases.
    pub fn alpha(&self) -> f64 {
        let total = self.total_duration();
        if total == 0.0 {
            0.0
        } else {
            self.total_library() / total
        }
    }

    /// Unfolds the profile into an ordered list of non-empty work segments.
    pub fn segments(&self) -> Vec<Segment> {
        let mut out = Vec::with_capacity(self.epochs.len() * 2);
        for (i, e) in self.epochs.iter().enumerate() {
            if e.general > 0.0 {
                out.push(Segment {
                    epoch: i,
                    kind: PhaseKind::General,
                    duration: e.general,
                });
            }
            if e.library > 0.0 {
                out.push(Segment {
                    epoch: i,
                    kind: PhaseKind::Library,
                    duration: e.library,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_platform::units::minutes;

    #[test]
    fn epoch_arithmetic() {
        let e = Epoch::new(20.0, 80.0).unwrap();
        assert_eq!(e.duration(), 100.0);
        assert!((e.alpha() - 0.8).abs() < 1e-12);
        assert!(Epoch::new(-1.0, 5.0).is_err());
        assert_eq!(Epoch::new(0.0, 0.0).unwrap().alpha(), 0.0);
    }

    #[test]
    fn uniform_profile_totals() {
        let p = ApplicationProfile::uniform(10, 12.0, 48.0).unwrap();
        assert_eq!(p.len(), 10);
        assert_eq!(p.total_duration(), 600.0);
        assert_eq!(p.total_library(), 480.0);
        assert!((p.alpha() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn from_params_matches_model_view() {
        let params = ModelParams::paper_figure7(0.8, minutes(120.0)).unwrap();
        let p = ApplicationProfile::from_params(&params);
        assert_eq!(p.len(), 1);
        assert!((p.total_duration() - params.epoch_duration).abs() < 1e-6);
        assert!((p.alpha() - 0.8).abs() < 1e-12);

        let p10 = ApplicationProfile::from_params_repeated(&params, 10);
        assert_eq!(p10.len(), 10);
        assert!((p10.total_duration() - params.epoch_duration).abs() < 1e-6);
        assert!((p10.alpha() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn segments_skip_empty_phases() {
        let p = ApplicationProfile::new(vec![
            Epoch::new(10.0, 0.0).unwrap(),
            Epoch::new(0.0, 20.0).unwrap(),
            Epoch::new(5.0, 5.0).unwrap(),
        ]);
        let segs = p.segments();
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].kind, PhaseKind::General);
        assert_eq!(segs[1].kind, PhaseKind::Library);
        assert_eq!(segs[1].epoch, 1);
        assert_eq!(segs[3].epoch, 2);
        let total: f64 = segs.iter().map(|s| s.duration).sum();
        assert_eq!(total, p.total_duration());
    }
}
