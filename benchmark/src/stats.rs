//! Order statistics over a handful of trials.

use crate::metrics::{Better, Pick};

/// Median, quartiles and range of a sample. The quartiles are the ones
/// Python's `statistics.quantiles(values, n=4)` gives, so a spread
/// computed here is the spread the acceptance check computes.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The samples, ascending.
    pub sorted: Vec<f64>,
    pub median: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN: both are bugs in the caller.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
        let n = v.len();
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            // statistics.quantiles, method "exclusive".
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let (q1, q3) = (quartile(1), quartile(3));
        Summary { median, min: v[0], q1, q3, max: v[n - 1], n, sorted: v }
    }

    fn best(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.min,
            Better::Higher => self.max,
        }
    }
}

/// One metric of one run: the value picked from its samples, and how
/// loosely the samples pin that value down.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Over all samples of the run.
    pub summary: Summary,
    pub value: f64,
    /// How far apart the two halves of the run are, as a share of `value`:
    /// the samples of the even-numbered trials and those of the odd-numbered
    /// trials, each half summarised the way the run is. `compare` calls a
    /// cell looser than its bound unresolved.
    ///
    /// The two halves are fresh systems interleaved over the whole run,
    /// each half on its own CPU where there are two, so they are two runs of
    /// half the length: a floor both reached is the code's, and a best that
    /// one of them never came near is the host's weather. (The gap to the
    /// next-best *sample* says nothing: the next slices of the same lucky
    /// second are always close. A quartile of the trials' bests cried wolf
    /// on one cell in sixteen whose value was within 5 % of the other runs'.)
    pub looseness: f64,
    /// Each trial's own best sample, in trial order; empty unless the value
    /// is a best sample.
    pub trial_bests: Vec<f64>,
}

impl Cell {
    /// `trials` holds the metric's samples, one list per trial.
    ///
    /// # Panics
    ///
    /// Panics when no trial has a sample, or on a NaN.
    pub fn of(trials: &[Vec<f64>], pick: Pick, better: Better) -> Cell {
        let picked = |samples: Vec<f64>| {
            let summary = Summary::of(&samples);
            let value = match pick {
                Pick::Best => summary.best(better),
                Pick::Median => summary.median,
            };
            (summary, value)
        };
        let half = |first: usize| {
            let samples: Vec<f64> =
                trials.iter().skip(first).step_by(2).flatten().copied().collect();
            (!samples.is_empty()).then(|| picked(samples).1)
        };
        let (summary, value) = picked(trials.iter().flatten().copied().collect());
        let apart = half(0).zip(half(1)).map_or(0.0, |(even, odd)| (even - odd).abs());
        let looseness = if value == 0.0 { 0.0 } else { apart / value.abs() };
        let trial_bests = match pick {
            Pick::Best => trials
                .iter()
                .filter(|t| !t.is_empty())
                .map(|t| Summary::of(t).best(better))
                .collect(),
            Pick::Median => Vec::new(),
        };
        Cell { summary, value, looseness, trial_bests }
    }
}

/// The `q`-quantile (nearest rank) of `samples`, which it reorders.
/// Returns 0 for an empty sample.
pub fn percentile(samples: &mut [u32], q: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(rank).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[1.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn the_best_sample_follows_the_metrics_direction() {
        let trials = [vec![5.0, 1.0], vec![4.0, 2.0], vec![3.0]];
        let lower = Cell::of(&trials, Pick::Best, Better::Lower);
        let higher = Cell::of(&trials, Pick::Best, Better::Higher);
        assert_eq!((lower.value, higher.value), (1.0, 5.0));
        assert_eq!(Cell::of(&trials, Pick::Median, Better::Higher).value, 3.0);
        assert_eq!(lower.summary.n, 5);
    }

    #[test]
    fn a_best_only_one_half_of_the_trials_reached_is_loose() {
        // One lucky slice in one trial; every other trial's best is 1.4.
        let mut trials = vec![vec![1.45, 1.4, 1.5]; 15];
        trials[3].push(1.0);
        let cell = Cell::of(&trials, Pick::Best, Better::Lower);
        assert_eq!(cell.value, 1.0);
        assert!((cell.looseness - 0.4).abs() < 1e-9, "{}", cell.looseness);
        // A floor both halves reached is tight, whatever else they saw.
        let trials: Vec<Vec<f64>> =
            (0..15).map(|i| if i % 7 == 3 { vec![1.0, 1.9] } else { vec![1.7, 1.9] }).collect();
        assert_eq!(Cell::of(&trials, Pick::Best, Better::Lower).looseness, 0.0);
        // The same for a metric where higher is better.
        let mut trials = vec![vec![100.0, 90.0]; 15];
        trials[0].push(150.0);
        let cell = Cell::of(&trials, Pick::Best, Better::Higher);
        assert!((cell.looseness - 50.0 / 150.0).abs() < 1e-9);
        // One trial has no other half to be held against.
        assert_eq!(Cell::of(&[vec![7.0, 9.0]], Pick::Best, Better::Lower).looseness, 0.0);
        assert_eq!(Cell::of(&[vec![7.0]], Pick::Median, Better::Lower).looseness, 0.0);
        // A median is held against the medians of its halves.
        let trials = [vec![1.0, 2.0, 3.0], vec![2.0, 3.0, 4.0], vec![1.0, 2.0, 3.0]];
        let cell = Cell::of(&trials, Pick::Median, Better::Lower);
        assert_eq!((cell.value, cell.looseness), (2.0, 0.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.9), 90);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }
}
