//! Order statistics over repeated samples.

/// Median, first and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
    /// (the "exclusive" method), so the spread printed here is the one the
    /// acceptance rule computes. `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        if n == 1 {
            return Some(Summary {
                median,
                q1: median,
                q3: median,
                n,
            });
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        })
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Nearest-rank percentiles (`ps` in [0, 1]) of a sample; 0 when empty.
pub fn percentiles(values: &[f64], ps: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    ps.iter()
        .map(|p| {
            if v.is_empty() {
                return 0.0;
            }
            let rank = (p * v.len() as f64).ceil() as usize;
            v[rank.clamp(1, v.len()) - 1]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentiles(&v, &[0.5, 0.99, 1.0]), vec![50.0, 99.0, 100.0]);
        assert_eq!(percentiles(&[], &[0.5]), vec![0.0]);
    }
}
