//! The estimators against known vectors.

use converse_benchmark::stats::{median, p10, percentile, quartiles, SplitMix, Summary};

#[test]
fn percentile_interpolates_between_ranks() {
    let v: Vec<f64> = (1..=11).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(p10(&v), 2.0);
    assert_eq!(median(&v), 6.0);
    assert_eq!(percentile(&v, 1.0), 11.0);
    // rank 0.25 · 3 = 0.75 between 10 and 20.
    assert_eq!(percentile(&[40.0, 10.0, 30.0, 20.0], 0.25), 17.5);
}

#[test]
fn median_of_even_count_is_the_mean_of_the_middle_pair() {
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn p10_ignores_slow_outliers_and_is_not_the_minimum() {
    let mut v = vec![100.0; 90];
    v.extend([1000.0; 9]);
    v.push(50.0); // one lucky batch
    assert_eq!(p10(&v), 100.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], n=4)
    //   == [2.0, 4.0, 5.0]
    let pi = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0];
    assert_eq!(quartiles(&pi), (2.0, 5.0));
}

#[test]
fn summary_reports_count_and_ordered_percentiles() {
    let v: Vec<f64> = (0..1000).map(f64::from).collect();
    let s = Summary::of(&v);
    assert_eq!(s.n, 1000);
    assert!(s.p10 < s.p50 && s.p50 < s.p90 && s.p90 < s.p99);
    assert!((s.p10 - 99.9).abs() < 1e-9);
}

#[test]
fn the_generator_is_a_function_of_its_seed() {
    let draw = |seed| {
        let mut r = SplitMix(seed);
        (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draw(1996), draw(1996));
    assert_ne!(draw(1996), draw(7));
}
