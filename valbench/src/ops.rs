//! The `serve-mixed` closed-loop operation sequence and its inputs.
//!
//! Each client owns a fixed set of tenants and issues, per operation
//! number `k = 1, 2, ...` shifted by its phase `p` ([`CLIENT_PHASE`]
//! times the client number): a `snapshot` when `k + p` is a multiple of
//! [`SNAPSHOT_EVERY`], else a `valmap` when `k + p` is a multiple of
//! [`VALMAP_EVERY`], else a [`APPEND_POINTS`]-point `append`. The phase
//! keeps clients that run at the same pace from sending their snapshots
//! (and valmaps) at the same moment, which would make the peak memory of
//! a run depend on whether two snapshots happened to overlap. Which of
//! its tenants an operation targets comes from a generator seeded by the
//! workload seed and the client number, and each tenant's appended
//! points continue its own seeded series, so the whole sequence is a
//! function of the seed.

/// Points per `append` request.
pub const APPEND_POINTS: usize = 16;
/// Every `VALMAP_EVERY`-th operation reads the tenant's VALMAP.
pub const VALMAP_EVERY: u64 = 8;
/// Every `SNAPSHOT_EVERY`-th operation takes a batch-grade snapshot
/// (in place of the `valmap` it would otherwise be).
pub const SNAPSHOT_EVERY: u64 = 64;
/// Operation-number shift between consecutive clients: half a snapshot
/// period plus half a valmap period.
pub const CLIENT_PHASE: u64 = (SNAPSHOT_EVERY + VALMAP_EVERY) / 2;

/// The verb of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// `append <tenant> <16 points>`.
    Append,
    /// `valmap <tenant>`.
    Valmap,
    /// `snapshot <tenant>`.
    Snapshot,
}

impl Verb {
    /// The verb of operation number `k` (1-based).
    #[must_use]
    pub fn of_op(k: u64) -> Self {
        if k.is_multiple_of(SNAPSHOT_EVERY) {
            Self::Snapshot
        } else if k.is_multiple_of(VALMAP_EVERY) {
            Self::Valmap
        } else {
            Self::Append
        }
    }

    /// The protocol verb.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Append => "append",
            Self::Valmap => "valmap",
            Self::Snapshot => "snapshot",
        }
    }
}

/// One operation of a client's sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Global tenant index.
    pub tenant: usize,
    /// What to do.
    pub verb: Verb,
    /// For appends: index of this tenant's append batch (0-based), so
    /// the points are `stream[bootstrap + batch·16 ..][..16]`.
    pub batch: usize,
}

/// `SplitMix64`: a tiny, well-mixed generator for deriving seeds and
/// choices.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator starting from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The seed of the `index`-th series a run derives from workload seed
/// `seed` (a tenant's series, or one of a batch run's series).
#[must_use]
pub fn sub_seed(seed: u64, index: usize) -> u64 {
    SplitMix64::new(seed ^ (index as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// The operation sequence of one client: an endless iterator over its
/// `owned` tenants (global indices).
#[derive(Debug, Clone)]
pub struct ClientOps {
    owned: Vec<usize>,
    rng: SplitMix64,
    k: u64,
    phase: u64,
    batches: Vec<usize>,
}

impl ClientOps {
    /// Client `client`'s sequence under workload seed `seed`.
    ///
    /// # Panics
    ///
    /// If `owned` is empty.
    #[must_use]
    pub fn new(seed: u64, client: usize, owned: Vec<usize>) -> Self {
        assert!(!owned.is_empty(), "a client owns at least one tenant");
        let rng = SplitMix64::new(seed.rotate_left(17) ^ (client as u64 + 1) << 40);
        let batches = vec![0; owned.len()];
        Self { owned, rng, k: 0, phase: client as u64 * CLIENT_PHASE, batches }
    }
}

impl Iterator for ClientOps {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.k += 1;
        let verb = Verb::of_op(self.k + self.phase);
        #[allow(clippy::cast_possible_truncation)]
        let slot = (self.rng.next_u64() % self.owned.len() as u64) as usize;
        let batch = self.batches[slot];
        if verb == Verb::Append {
            self.batches[slot] += 1;
        }
        Some(Op { tenant: self.owned[slot], verb, batch })
    }
}

/// The tenants client `client` owns when `tenants` are split evenly
/// over `clients` connections.
#[must_use]
pub fn owned_tenants(client: usize, clients: usize, tenants: usize) -> Vec<usize> {
    (0..tenants).filter(|t| t % clients == client).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(seed: u64, client: usize, n: usize) -> Vec<Op> {
        ClientOps::new(seed, client, owned_tenants(client, 2, 4)).take(n).collect()
    }

    #[test]
    fn the_sequence_is_a_function_of_the_seed() {
        assert_eq!(first(7, 0, 500), first(7, 0, 500));
        assert_eq!(first(7, 1, 500), first(7, 1, 500));
        assert_ne!(first(7, 0, 500), first(8, 0, 500));
        assert_ne!(first(7, 0, 500), first(7, 1, 500));
    }

    #[test]
    fn verbs_follow_the_fixed_mix() {
        let ops = first(3, 0, 128);
        for (i, op) in ops.iter().enumerate() {
            let k = i as u64 + 1;
            let want = if k.is_multiple_of(64) {
                Verb::Snapshot
            } else if k.is_multiple_of(8) {
                Verb::Valmap
            } else {
                Verb::Append
            };
            assert_eq!(op.verb, want, "op {k}");
        }
        let appends = ops.iter().filter(|o| o.verb == Verb::Append).count();
        assert_eq!(appends, 128 - 16);
    }

    #[test]
    fn clients_are_out_of_phase() {
        let at = |client, verb| -> Vec<usize> {
            let ops = first(3, client, 256);
            (0..ops.len()).filter(|&i| ops[i].verb == verb).collect()
        };
        for verb in [Verb::Snapshot, Verb::Valmap] {
            let (a, b) = (at(0, verb), at(1, verb));
            assert_eq!(a.len(), b.len());
            assert!(a.iter().all(|i| !b.contains(i)), "{verb:?} positions coincide");
        }
    }

    #[test]
    fn clients_touch_only_their_tenants_and_batches_count_up() {
        let ops = first(11, 1, 300);
        assert!(ops.iter().all(|o| o.tenant == 1 || o.tenant == 3));
        for tenant in [1, 3] {
            let batches: Vec<usize> = ops
                .iter()
                .filter(|o| o.tenant == tenant && o.verb == Verb::Append)
                .map(|o| o.batch)
                .collect();
            assert!(!batches.is_empty());
            assert!(batches.iter().enumerate().all(|(i, &b)| b == i), "tenant {tenant}");
        }
    }

    #[test]
    fn sub_seeds_differ() {
        let seeds: Vec<u64> = (0..4).map(|t| sub_seed(5, t)).collect();
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
        assert_eq!(sub_seed(5, 2), sub_seed(5, 2));
    }
}
