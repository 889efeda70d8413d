//! Seeded workload inputs. Every input is a pure function of the
//! benchmark's `--seed`; the programs under test only ever see the
//! generated lengths, activations and weights.

use cora_datasets::Dataset;
use cora_serve::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Candidate draws per stratum in [`stratified_lengths`].
const DRAWS_PER_STRATUM: usize = 32;

/// Derives an independent sub-seed for one use of the run seed.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    // SplitMix64 finaliser over (seed, tag): nearby seeds and tags give
    // unrelated streams.
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A batch of `n` lengths from `ds`'s distribution, stratified: the
/// dataset sampler draws `n × DRAWS_PER_STRATUM` lengths, and the batch
/// takes one seeded pick from each of the `n` equal-count strata of the
/// sorted draws. Each batch thus spans the distribution from its short
/// to its long end, so its total rows and maximum length — what the
/// ragged and padded layers' costs follow — stay close across seeds,
/// while the exact lengths still change with every seed. Sorted longest
/// first, the order CoRa's encoder uses.
pub fn stratified_lengths(ds: Dataset, n: usize, seed: u64) -> Vec<usize> {
    let mut draws = ds.sample_lengths(n * DRAWS_PER_STRATUM, sub_seed(seed, 1));
    draws.sort_unstable();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let mut lens: Vec<usize> = draws
        .chunks(DRAWS_PER_STRATUM)
        .map(|stratum| stratum[rng.gen_range(0..stratum.len())])
        .collect();
    lens.sort_unstable_by(|a, b| b.cmp(a));
    lens
}

/// `count` requests with `ds`-distributed lengths (not quantized),
/// uniform activations in `[-1, 1)`, ids `0..count` and arrival times
/// `arrival_ns(i)`. The lengths are a [`stratified_lengths`] draw in a
/// seeded random order, so every run serves the same length mix — which
/// sets the pool's memory and the compile work — in a different order.
pub fn requests(
    ds: Dataset,
    count: usize,
    hidden: usize,
    seed: u64,
    arrival_ns: impl Fn(usize) -> u64,
) -> Vec<Request> {
    let mut lens = stratified_lengths(ds, count, sub_seed(seed, 3));
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    for i in (1..lens.len()).rev() {
        lens.swap(i, rng.gen_range(0..=i));
    }
    with_lengths(&lens, hidden, &mut rng, arrival_ns)
}

/// Requests of `lens`, in order, with ids `0..lens.len()`, uniform
/// activations in `[-1, 1)` drawn from `rng` and arrival times
/// `arrival_ns(i)`.
pub fn with_lengths(
    lens: &[usize],
    hidden: usize,
    rng: &mut StdRng,
    arrival_ns: impl Fn(usize) -> u64,
) -> Vec<Request> {
    lens.iter()
        .enumerate()
        .map(|(i, &len)| {
            let data = (0..len * hidden)
                .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
                .collect();
            Request::new(i as u64, len, data, arrival_ns(i))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = stratified_lengths(Dataset::Mnli, 32, 42);
        assert_eq!(a, stratified_lengths(Dataset::Mnli, 32, 42));
        assert_ne!(a, stratified_lengths(Dataset::Mnli, 32, 43));
        assert_eq!(a.len(), 32);
        assert!(a.windows(2).all(|w| w[0] >= w[1]));
        let r1 = requests(Dataset::Mnli, 5, 4, 7, |i| i as u64);
        let r2 = requests(Dataset::Mnli, 5, 4, 7, |i| i as u64);
        assert!(r1
            .iter()
            .zip(&r2)
            .all(|(x, y)| x.len == y.len && x.data == y.data));
        assert!(r1.iter().all(|r| r.data.len() == r.len * 4));
    }

    #[test]
    fn stratified_batches_vary_less_than_independent_draws() {
        let spread = |totals: &[f64]| {
            let q = crate::stats::quartiles(totals);
            (q[2] - q[0]) / q[1]
        };
        let strat: Vec<f64> = (0..40)
            .map(|s| {
                stratified_lengths(Dataset::Mnli, 32, s)
                    .iter()
                    .sum::<usize>() as f64
            })
            .collect();
        let iid: Vec<f64> = (0..40)
            .map(|s| Dataset::Mnli.sample_lengths(32, s).iter().sum::<usize>() as f64)
            .collect();
        assert!(spread(&strat) < spread(&iid) / 2.0);
    }
}
