//! Order statistics used by every timing the benchmark reports.

/// The median (mean of the two middle values for an even count); 0 when
/// `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A high percentile of a sample together with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at [`Tail::index`] of the ascending order.
    pub value: f64,
    /// 0-based index into the ascending order.
    pub index: usize,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples strictly beyond `index`.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The 0-based index [`tail`] reports for `n` ascending samples: the
/// highest index with at least [`TAIL_BEYOND`] samples beyond it, but never
/// below the upper median `n / 2` — a tail is not reported under the
/// median, so a population too small to leave ten samples beyond its upper
/// half reports its upper median and says how many lie beyond.
pub fn tail_index(n: usize) -> usize {
    n.saturating_sub(TAIL_BEYOND + 1)
        .max(n / 2)
        .min(n.saturating_sub(1))
}

/// The tail percentile of `v` by [`tail_index`].
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    let index = tail_index(n);
    Tail {
        value: s.get(index).copied().unwrap_or(0.0),
        index,
        percentile: if n == 0 {
            0.0
        } else {
            100.0 * (index + 1) as f64 / n as f64
        },
        beyond: n.saturating_sub(index + 1),
        n,
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ratio_of_zero_work_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
