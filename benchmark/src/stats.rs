//! Percentile maths shared by the workloads and `compare`.

/// Linear-interpolated percentile (`q` in `[0, 1]`) of an unsorted
/// sample; 0 for an empty one.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Median with its quartiles and the sample count — how every timing
/// is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            q1: percentile_sorted(&sorted, 0.25),
            median: percentile_sorted(&sorted, 0.5),
            q3: percentile_sorted(&sorted, 0.75),
        }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0): the run-to-run spread `compare` judges against a
    /// metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&s, 0.25), 1.75);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // 1..=100: p95 sits between the 95th and 96th values.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.95) - 95.05).abs() < 1e-9);
    }

    #[test]
    fn summary_and_spread() {
        let s = Summary::of(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 10.0, 11.0, 12.0));
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
