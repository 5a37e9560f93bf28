//! Order statistics and wall-clock blocking.

use std::time::{Duration, Instant};

/// Linearly interpolated `q`-quantile (NaN for no samples).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median (NaN for no samples).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (NaN for no samples).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples grouped by the wall-clock block they were taken in.
#[derive(Debug, Clone)]
pub struct Blocked {
    blocks: Vec<Vec<f64>>,
}

impl Blocked {
    /// `n` empty blocks.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            blocks: vec![Vec::new(); n],
        }
    }

    /// Records a sample in `block`.
    pub fn push(&mut self, block: usize, value: f64) {
        self.blocks[block].push(value);
    }

    /// Every sample, block order.
    #[must_use]
    pub fn pooled(&self) -> Vec<f64> {
        self.blocks.concat()
    }

    /// Median over the non-empty blocks of each block's `q`-quantile.
    #[must_use]
    pub fn block_quantile(&self, q: f64) -> f64 {
        let per_block: Vec<f64> = self
            .blocks
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| quantile(b, q))
            .collect();
        median(&per_block)
    }

    /// Median over the non-empty blocks of each block's sum divided by
    /// the matching entry of `per_block_divisor` (e.g. ops per second of
    /// the block's wall time).
    #[must_use]
    pub fn block_sum_over(&self, per_block_divisor: &[f64]) -> f64 {
        let per_block: Vec<f64> = self
            .blocks
            .iter()
            .zip(per_block_divisor)
            .filter(|(b, d)| !b.is_empty() && **d > 0.0)
            .map(|(b, d)| b.iter().sum::<f64>() / d)
            .collect();
        median(&per_block)
    }

    /// Median over the non-empty blocks of each block's samples per unit
    /// of summed sample value, times `scale` (µs samples with
    /// `scale = 1e6` give events per second of busy time).
    #[must_use]
    pub fn block_rate(&self, scale: f64) -> f64 {
        let per_block: Vec<f64> = self
            .blocks
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| b.len() as f64 * scale / b.iter().sum::<f64>())
            .collect();
        median(&per_block)
    }
}

/// Maps instants inside a timed region onto [`crate::BLOCKS`] equal
/// blocks.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    duration: Duration,
}

impl Clock {
    /// A region of `duration` starting now.
    #[must_use]
    pub fn start(duration: Duration) -> Self {
        Self {
            start: Instant::now(),
            duration,
        }
    }

    /// Time since the region started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// True once the region's duration has passed.
    #[must_use]
    pub fn done(&self) -> bool {
        self.elapsed() >= self.duration
    }

    /// The block an offset from the region start falls in.
    #[must_use]
    pub fn block_at(&self, offset: Duration) -> usize {
        let frac = offset.as_secs_f64() / self.duration.as_secs_f64();
        ((frac * crate::BLOCKS as f64) as usize).min(crate::BLOCKS - 1)
    }

    /// Wall seconds each block covered, given the region's actual
    /// length `wall` (the last block absorbs any overrun).
    #[must_use]
    pub fn block_seconds(&self, wall: Duration) -> Vec<f64> {
        let each = self.duration.as_secs_f64() / crate::BLOCKS as f64;
        let mut out = vec![each; crate::BLOCKS];
        out[crate::BLOCKS - 1] = wall.as_secs_f64() - each * (crate::BLOCKS - 1) as f64;
        out
    }

    /// The block the current instant falls in.
    #[must_use]
    pub fn block(&self) -> usize {
        self.block_at(self.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn block_quantile_ignores_one_disturbed_block() {
        let mut b = Blocked::new(5);
        for block in 0..5 {
            let scale = if block == 2 { 10.0 } else { 1.0 };
            for i in 1..=100 {
                b.push(block, scale * f64::from(i));
            }
        }
        let undisturbed: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(b.block_quantile(0.9), quantile(&undisturbed, 0.9));
    }
}
