//! The tail-percentile rule: the highest percentile with at least ten
//! samples beyond it, never below the median.

use textmr_perfbench::stats::{median, tail, tail_index, TAIL_BEYOND};

#[test]
fn small_populations_report_the_upper_median() {
    assert_eq!(tail_index(0), 0);
    assert_eq!(tail_index(1), 0);
    assert_eq!(tail_index(2), 1);
    assert_eq!(tail_index(3), 1);
    assert_eq!(tail_index(4), 2);
    assert_eq!(tail_index(11), 5);
    // Up to 21 samples, ten beyond would put the index under the median.
    assert_eq!(tail_index(21), 10);
    assert_eq!(tail_index(22), 11);
}

#[test]
fn large_populations_leave_exactly_ten_beyond() {
    assert_eq!(tail_index(23), 12);
    assert_eq!(tail_index(100), 89);
    assert_eq!(tail_index(2000), 1989);
    for n in 22..300 {
        let i = tail_index(n);
        assert_eq!(n - 1 - i, TAIL_BEYOND, "n={n}");
    }
}

#[test]
fn tail_is_never_below_the_median() {
    for n in 1..60 {
        let v: Vec<f64> = (0..n).map(|i| ((i * 37) % n) as f64).collect();
        assert!(tail(&v).value >= median(&v), "n={n}");
    }
}

#[test]
fn tail_records_its_percentile_and_what_lies_beyond() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&v);
    assert_eq!(t.value, 90.0);
    assert_eq!(t.beyond, 10);
    assert_eq!(t.n, 100);
    assert!((t.percentile - 90.0).abs() < 1e-9);

    let t = tail(&[3.0, 1.0, 2.0]);
    assert_eq!((t.value, t.index, t.beyond), (2.0, 1, 1));
    let empty = tail(&[]);
    assert_eq!((empty.value, empty.n), (0.0, 0));
}
