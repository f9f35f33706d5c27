//! Seeded input generation: the benchmark's own RNG, zipfian and operation
//! streams. Everything a workload sends is a pure function of `--seed` and
//! the repetition index, and [`InputHash`] over the generated stream is
//! printed so two runs can prove they replayed the same inputs. Nothing here
//! comes from `crates/workloads`: the generator under suspicion in the old
//! `net-kv-*` rows must not be the one that judges them.

use txkv::KvOp;

/// Records populated before every KV workload.
pub const RECORDS: u64 = 65_536;
/// Words per value.
pub const VALUE_WORDS: usize = 8;
/// Hash shards of the store.
pub const SHARDS: u64 = 16;
/// YCSB's default skew.
pub const ZIPF_THETA: f64 = 0.99;

/// SplitMix64: small, fast, and good enough to drive a load generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)` — repetitions, connections
    /// and threads each get their own.
    pub fn stream(seed: u64, lane: u64) -> Rng {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻⁴⁰ here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Scrambled zipfian over `0..n` (Gray et al.'s generator as YCSB uses it):
/// rank 0 is the hottest, and ranks are scattered over the key space by an
/// odd multiplier so hot keys spread across all shards. `n` must be a power
/// of two: that is what makes the odd multiplier a bijection on `0..n`, so
/// scrambling never folds two ranks onto one key.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n >= 2 && n.is_power_of_two() && theta > 0.0 && theta < 1.0);
        let zeta = |n: u64| (1..=n).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            rank.min(self.n - 1)
        }
    }

    pub fn next(&self, rng: &mut Rng) -> u64 {
        self.rank(rng).wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.n
    }
}

/// A 64-bit running hash (FNV-style fold over 8-byte words). Used both for
/// `input_hash` and for the per-connection reply-stream hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputHash(pub u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xCBF2_9CE4_8422_2325)
    }
}

impl InputHash {
    #[inline]
    pub fn word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        // The length is folded in so `ab|c` and `a|bc` hash differently.
        self.word(u64::from_le_bytes(tail) ^ ((bytes.len() as u64) << 56));
    }

    pub fn op(&mut self, op: &KvOp) {
        match op {
            KvOp::Get { key } => {
                self.word(1);
                self.word(*key);
            }
            KvOp::Put { key, value } => {
                self.word(2);
                self.word(*key);
                value.iter().for_each(|w| self.word(*w));
            }
            KvOp::Scan { lo, hi, limit } => {
                self.word(5);
                self.word(*lo);
                self.word(*hi);
                self.word(*limit);
            }
            KvOp::Delete { .. } | KvOp::Cas { .. } => unreachable!("not generated"),
        }
    }
}

/// Every word of a value carries the same stamp, so a torn read or write —
/// words from two different puts in one value — is visible in the value
/// itself.
pub fn stamped(stamp: u64) -> Vec<u64> {
    vec![stamp; VALUE_WORDS]
}

/// The value `key` is populated with.
pub fn initial_value(key: u64) -> Vec<u64> {
    stamped(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
}

/// `true` if all words of `value` carry one stamp.
pub fn untorn(value: &[u64]) -> bool {
    value.len() == VALUE_WORDS && value.iter().all(|w| *w == value[0])
}

/// The population of every KV workload: `RECORDS` keys, 8-word values.
pub fn population() -> impl Iterator<Item = (u64, Vec<u64>)> {
    (0..RECORDS).map(|key| (key, initial_value(key)))
}

/// One connection's single-operation request stream for the `net-*`
/// workloads: `len` requests over the keys of parity `lane` (so the two
/// connections never touch each other's keys and each reply stream is a pure
/// function of its own request stream), `read_pct` % gets, the rest puts.
pub fn net_stream(
    seed: u64,
    rep: u64,
    lane: u64,
    lanes: u64,
    len: usize,
    read_pct: u64,
) -> Vec<KvOp> {
    let mut rng = Rng::stream(seed, rep << 8 | lane);
    let zipf = Zipfian::new(RECORDS / lanes, ZIPF_THETA);
    (0..len)
        .map(|_| {
            let key = zipf.next(&mut rng) * lanes + lane;
            if rng.below(100) < read_pct {
                KvOp::Get { key }
            } else {
                KvOp::Put {
                    key,
                    value: stamped(rng.next_u64()),
                }
            }
        })
        .collect()
}

/// Operations per `kv-inproc-mix` batch.
pub const MIX_BATCH_OPS: usize = 16;
/// Entries a `kv-inproc-mix` scan may return.
pub const MIX_SCAN_LIMIT: u64 = 32;

/// One session thread's batch stream for `kv-inproc-mix`: 60 % get, 30 % put,
/// 10 % scan over keys *shared* with the other thread. A put's stamp names
/// its thread and its position in the stream, so the verifier can tell whose
/// write a final value is.
pub fn mix_stream(seed: u64, rep: u64, thread: u64, batches: usize) -> Vec<Vec<KvOp>> {
    let mut rng = Rng::stream(seed, rep << 8 | 0x40 | thread);
    let zipf = Zipfian::new(RECORDS, ZIPF_THETA);
    (0..batches)
        .map(|batch| {
            (0..MIX_BATCH_OPS)
                .map(|slot| {
                    let key = zipf.next(&mut rng);
                    match rng.below(100) {
                        0..=59 => KvOp::Get { key },
                        60..=89 => KvOp::Put {
                            key,
                            // Even stamps: never equal to an (odd) initial stamp.
                            value: stamped(
                                (thread + 1) << 56 | ((batch * MIX_BATCH_OPS + slot) as u64) << 1,
                            ),
                        },
                        _ => KvOp::Scan {
                            lo: key,
                            hi: key.saturating_add(MIX_SCAN_LIMIT * 4),
                            limit: MIX_SCAN_LIMIT,
                        },
                    }
                })
                .collect()
        })
        .collect()
}

/// The read-only/write decisions of a `tx-long-*` traversal stream
/// (`true` = write traversal).
pub fn traversal_stream(seed: u64, rep: u64, len: usize, read_pct: u64) -> Vec<bool> {
    let mut rng = Rng::stream(seed, rep << 8 | 0x80);
    (0..len).map(|_| rng.below(100) >= read_pct).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_ops<'a>(ops: impl IntoIterator<Item = &'a KvOp>) -> u64 {
        let mut h = InputHash::default();
        ops.into_iter().for_each(|op| h.op(op));
        h.0
    }

    #[test]
    fn the_same_seed_replays_the_same_stream_and_another_seed_does_not() {
        let a = net_stream(7, 0, 0, 2, 2000, 50);
        assert_eq!(a, net_stream(7, 0, 0, 2, 2000, 50));
        assert_eq!(hash_ops(&a), hash_ops(&net_stream(7, 0, 0, 2, 2000, 50)));
        assert_ne!(hash_ops(&a), hash_ops(&net_stream(8, 0, 0, 2, 2000, 50)));
        assert_ne!(hash_ops(&a), hash_ops(&net_stream(7, 1, 0, 2, 2000, 50)));
        assert_ne!(hash_ops(&a), hash_ops(&net_stream(7, 0, 1, 2, 2000, 50)));
        assert_eq!(mix_stream(3, 1, 0, 50), mix_stream(3, 1, 0, 50));
        assert_ne!(mix_stream(3, 1, 0, 50), mix_stream(3, 1, 1, 50));
        assert_eq!(
            traversal_stream(3, 0, 100, 10),
            traversal_stream(3, 0, 100, 10)
        );
        assert_ne!(
            traversal_stream(3, 0, 100, 10),
            traversal_stream(4, 0, 100, 10)
        );
    }

    #[test]
    fn connections_own_disjoint_keys_and_the_mix_is_as_stated() {
        for lane in 0..2 {
            let ops = net_stream(11, 0, lane, 2, 20_000, 95);
            let mut gets = 0;
            for op in &ops {
                let key = op.planning_key();
                assert_eq!(key % 2, lane);
                assert!(key < RECORDS);
                gets += u32::from(matches!(op, KvOp::Get { .. }));
            }
            assert!((18_700..19_300).contains(&gets), "95% gets, got {gets}");
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let zipf = Zipfian::new(1024, ZIPF_THETA);
        let mut rng = Rng::stream(1, 0);
        let mut counts = vec![0u32; 1024];
        for _ in 0..100_000 {
            counts[zipf.next(&mut rng) as usize] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        // Rank 0 draws ~1/zeta(1024, .99) ≈ 13 % of the samples.
        assert!(
            (10_000..17_000).contains(&hottest),
            "hottest key drew {hottest}"
        );
        assert!(counts.iter().filter(|c| **c > 0).count() > 700);
    }

    #[test]
    fn stamps_distinguish_torn_values_and_writers() {
        assert!(untorn(&initial_value(5)));
        let mut torn = stamped(8);
        torn[3] = 9;
        assert!(!untorn(&torn));
        assert!(!untorn(&[1, 1]));
        let batches = mix_stream(1, 0, 1, 20);
        for op in batches.iter().flatten() {
            if let KvOp::Put { value, .. } = op {
                assert_eq!(value[0] >> 56, 2);
                assert_eq!(value[0] & 1, 0);
            }
        }
    }

    #[test]
    fn byte_hash_is_boundary_sensitive() {
        let hash = |parts: &[&[u8]]| {
            let mut h = InputHash::default();
            parts.iter().for_each(|p| h.bytes(p));
            h.0
        };
        assert_ne!(hash(&[b"ab", b"c"]), hash(&[b"a", b"bc"]));
        assert_eq!(hash(&[b"0123456789"]), hash(&[b"0123456789"]));
        assert_ne!(hash(&[b"0123456789"]), hash(&[b"0123456780"]));
    }
}
