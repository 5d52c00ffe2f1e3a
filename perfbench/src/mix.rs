//! Seeded inputs: a small deterministic generator and the request mix of
//! the served workload.

/// SplitMix64 — tiny, fast and good enough to derive benchmark inputs
/// from a seed. The same seed always yields the same stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seed derived from `seed` for the sub-stream `stream` (per kernel,
/// per client, per frame), so inputs of different parts never coincide.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Algorithms the served workload's hot keys and writes cover.
pub const SERVE_ALGOS: [&str; 3] = ["igf", "chambolle", "jacobi"];
/// Frame seeds of the hot certify keys (per algorithm).
pub const HOT_CERTIFY_SEEDS: [u64; 2] = [1, 2];
/// Requests per block of the served mix; each block holds one write.
pub const BLOCK: usize = 10;

/// One request of the served mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Explore of a hot algorithm (warmed during set-up: a store hit).
    ReadExplore { algo: &'static str },
    /// Certify of a hot key (warmed during set-up: a store hit).
    ReadCertify { algo: &'static str, seed: u64 },
    /// Certify with a fresh frame seed: a cold certification plus a
    /// checkpoint of the persistent store before the reply.
    Write { algo: &'static str, seed: u64 },
}

impl ServeOp {
    pub fn is_write(&self) -> bool {
        matches!(self, ServeOp::Write { .. })
    }
}

/// Every hot read key, in a fixed order (what set-up warms).
pub fn hot_keys() -> Vec<ServeOp> {
    let mut keys = Vec::new();
    for algo in SERVE_ALGOS {
        keys.push(ServeOp::ReadExplore { algo });
        for seed in HOT_CERTIFY_SEEDS {
            keys.push(ServeOp::ReadCertify { algo, seed });
        }
    }
    keys
}

/// Closed-loop clients per half of a run, and the longest sequence one
/// client sends (the widths of their fields in a write seed).
pub const MAX_CLIENTS: u64 = 2;
pub const MAX_LEN: usize = 1 << 20;
/// Bits of the run seed a write seed carries.
const SEED_BITS: u32 = 30;

/// The request sequence of client `client` in half `half` of a run (0
/// untraced, 1 traced) under run seed `seed`: blocks of [`BLOCK`]
/// requests, each with one write at a seeded position (write algorithms
/// taking turns) and reads drawn from [`hot_keys`]. Stratifying the writes
/// keeps the read share exactly 1 − 1/[`BLOCK`] in every run, so runs
/// under different seeds carry the same load. Deterministic in
/// `(seed, half, client)`.
///
/// A write seed is `1·2^52 | half·2^51 | client·2^50 | seed mod 2^30 ·
/// 2^20 | index`: unique across halves, clients and indices, equal for two
/// runs only when their seeds agree in the low 30 bits, far above the hot
/// seeds, and below 2^53, because the wire carries numbers as doubles.
pub fn client_sequence(seed: u64, half: u64, client: u64, len: usize) -> Vec<ServeOp> {
    assert!(half < 2 && client < MAX_CLIENTS && len <= MAX_LEN);
    let hot = hot_keys();
    let mut rng = Rng::new(derive(seed, 0x5E7E_0000 + half * MAX_CLIENTS + client));
    let mut next_algo = rng.below(SERVE_ALGOS.len());
    let mut write_at = rng.below(BLOCK);
    (0..len as u64)
        .map(|i| {
            let pos = i as usize % BLOCK;
            if pos == 0 && i > 0 {
                write_at = rng.below(BLOCK);
            }
            if pos != write_at {
                return hot[rng.below(hot.len())];
            }
            let algo = SERVE_ALGOS[next_algo];
            next_algo = (next_algo + 1) % SERVE_ALGOS.len();
            let run = seed & ((1 << SEED_BITS) - 1);
            let fresh = (1 << 52) | (half << 51) | (client << 50) | (run << 20) | i;
            ServeOp::Write { algo, seed: fresh }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rng_is_reproducible_and_uniform_enough() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = Rng::new(3);
        let mut counts = [0u32; 4];
        for _ in 0..20_000 {
            counts[r.below(4)] += 1;
        }
        assert!(
            counts.iter().all(|&c| (c as i32 - 5_000).abs() < 250),
            "{counts:?}"
        );
    }

    #[test]
    fn mix_has_the_stated_read_share() {
        for seed in [1, 2, 99] {
            let ops = client_sequence(seed, 0, 0, 20_000);
            // Exactly one write per block, wherever a run stops.
            for block in ops.chunks(BLOCK) {
                assert_eq!(block.iter().filter(|op| op.is_write()).count(), 1);
            }
            let reads = ops.iter().filter(|op| !op.is_write()).count();
            let share = reads as f64 / ops.len() as f64;
            assert!((share - 0.9).abs() < 1e-12, "seed {seed}: {share}");
            // Writes rotate over the algorithms: equal shares.
            for algo in SERVE_ALGOS {
                let n = ops
                    .iter()
                    .filter(|op| matches!(op, ServeOp::Write { algo: a, .. } if *a == algo))
                    .count();
                assert!((n as f64 - 2_000.0 / 3.0).abs() <= 1.0, "{algo}: {n}");
            }
            // Reads spread over the hot keys.
            let hot = hot_keys();
            for key in &hot {
                let n = ops.iter().filter(|op| *op == key).count() as f64;
                let expect = reads as f64 / hot.len() as f64;
                assert!(
                    (n - expect).abs() < 0.1 * expect,
                    "{key:?}: {n} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn mix_is_reproducible_per_seed_and_client() {
        assert_eq!(client_sequence(5, 0, 1, 500), client_sequence(5, 0, 1, 500));
        assert_ne!(client_sequence(5, 0, 1, 500), client_sequence(6, 0, 1, 500));
        assert_ne!(client_sequence(5, 0, 0, 500), client_sequence(5, 0, 1, 500));
        assert_ne!(client_sequence(5, 0, 1, 500), client_sequence(5, 1, 1, 500));
    }

    #[test]
    fn write_seeds_are_fresh() {
        let hot: HashSet<u64> = HOT_CERTIFY_SEEDS.into_iter().collect();
        let mut seen = HashSet::new();
        // Both halves of two runs whose seeds share their low byte.
        for run in [11, 11 + 256] {
            for half in 0..2 {
                for client in 0..MAX_CLIENTS {
                    for op in client_sequence(run, half, client, 5_000) {
                        if let ServeOp::Write { seed, .. } = op {
                            assert!(!hot.contains(&seed));
                            assert!(seed < 1 << 53, "seed not exact as a JSON number");
                            assert!(seen.insert(seed), "write seed repeated");
                        }
                    }
                }
            }
        }
    }
}
