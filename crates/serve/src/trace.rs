//! Seeded arrival processes: the load side of a serving experiment.
//!
//! An **open-loop** arrival process offers requests on a schedule that
//! does not react to the server (no waiting for responses) — the standard
//! way to measure latency under offered load, and the regime where
//! admission control actually matters. Arrivals are drawn per tick from a
//! seeded binomial (a discrete stand-in for Poisson traffic), so the same
//! seed replays the same trace on every machine and backend — which is
//! what the determinism tests pin.

use peachy_data::matrix::Matrix;
use peachy_prng::{mix_seed, Bernoulli, Lcg64, RandomStream, UniformU64};

/// Arrival ticks for an open-loop process over `ticks` virtual ticks with
/// mean `rate` arrivals per tick. Returns one entry per request,
/// nondecreasing — ready for [`crate::Server::run_trace`].
///
/// Per tick the arrival count is binomial: `4·⌈rate⌉` Bernoulli trials
/// with success probability `rate / trials`, so bursts above and lulls
/// below the mean both occur, reproducibly from `seed`.
pub fn open_loop_arrivals(seed: u64, ticks: u64, rate: f64) -> Vec<u64> {
    assert!(
        rate >= 0.0 && rate.is_finite(),
        "rate must be finite and ≥ 0"
    );
    let trials = ((rate * 4.0).ceil() as u64).max(1);
    let p = (rate / trials as f64).min(1.0);
    let bern = Bernoulli::new(p);
    let mut rng = Lcg64::seed_from(mix_seed(seed));
    let mut out = Vec::new();
    for t in 0..ticks {
        for _ in 0..trials {
            if bern.sample(&mut rng) {
                out.push(t);
            }
        }
    }
    out
}

/// A full request trace for the row-input services: each arrival from
/// [`open_loop_arrivals`] carries a row drawn uniformly (seeded) from
/// `pool` — e.g. a held-out query set.
pub fn query_trace(seed: u64, ticks: u64, rate: f64, pool: &Matrix) -> Vec<(u64, Vec<f64>)> {
    assert!(!pool.is_empty(), "empty query pool");
    let arrivals = open_loop_arrivals(seed, ticks, rate);
    let pick = UniformU64::new(0, pool.rows() as u64);
    let mut rng = Lcg64::seed_from(mix_seed(seed ^ 0x9e37_79b9_7f4a_7c15));
    arrivals
        .into_iter()
        .map(|t| (t, pool.row(pick.sample(&mut rng) as usize).to_vec()))
        .collect()
}

/// A keyed request trace for explicitly-routed sharded services (input
/// type `(key, row)`, e.g. [`crate::ShardedKnnService`]): each arrival
/// carries a uniform seeded `u64` routing key plus a row drawn from
/// `pool`. Keys and rows come from independent streams, so the same seed
/// replays the identical keyed trace everywhere.
pub fn keyed_query_trace(
    seed: u64,
    ticks: u64,
    rate: f64,
    pool: &Matrix,
) -> Vec<(u64, (u64, Vec<f64>))> {
    assert!(!pool.is_empty(), "empty query pool");
    let mut keys = Lcg64::seed_from(mix_seed(seed ^ 0x5ead_ed5e_11ce_0007));
    query_trace(seed, ticks, rate, pool)
        .into_iter()
        .map(|(t, row)| (t, (keys.next_u64(), row)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let a = open_loop_arrivals(42, 100, 1.5);
        let b = open_loop_arrivals(42, 100, 1.5);
        assert_eq!(a, b);
        let c = open_loop_arrivals(43, 100, 1.5);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn arrivals_are_nondecreasing_and_near_rate() {
        let ticks = 2000;
        let rate = 2.0;
        let a = open_loop_arrivals(7, ticks, rate);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let mean = a.len() as f64 / ticks as f64;
        assert!(
            (mean - rate).abs() < 0.2 * rate,
            "offered load {mean} too far from {rate}"
        );
        assert!(a.iter().all(|&t| t < ticks));
    }

    #[test]
    fn zero_rate_offers_nothing() {
        assert!(open_loop_arrivals(1, 50, 0.0).is_empty());
    }

    #[test]
    fn query_trace_draws_rows_from_the_pool() {
        let pool = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let trace = query_trace(5, 200, 1.0, &pool);
        assert!(!trace.is_empty());
        for (_, q) in &trace {
            assert!(q == &[1.0, 2.0] || q == &[3.0, 4.0]);
        }
        assert_eq!(trace, query_trace(5, 200, 1.0, &pool), "reproducible");
    }

    #[test]
    fn keyed_trace_shares_rows_and_adds_spread_keys() {
        let pool = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let keyed = keyed_query_trace(5, 200, 1.0, &pool);
        let plain = query_trace(5, 200, 1.0, &pool);
        assert_eq!(keyed.len(), plain.len());
        for ((kt, (_, krow)), (pt, prow)) in keyed.iter().zip(&plain) {
            assert_eq!((kt, krow), (pt, prow), "keys must not disturb the trace");
        }
        let distinct: std::collections::BTreeSet<u64> =
            keyed.iter().map(|(_, (k, _))| *k).collect();
        assert!(distinct.len() > keyed.len() / 2, "routing keys collapsed");
        assert_eq!(keyed, keyed_query_trace(5, 200, 1.0, &pool), "reproducible");
    }
}
