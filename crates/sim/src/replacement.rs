//! Replacement policies and the mask-aware replacement unit.
//!
//! Column caching's only change to replacement is *which* lines are candidates: the policy
//! still orders the ways of a set, but the victim must come from a column whose bit is set
//! in the access's [`ColumnMask`]. Invalid (empty) ways inside the allowed mask are always
//! preferred over evicting live data.

use crate::mask::ColumnMask;
use std::fmt;

/// The victim-selection policy applied within the allowed columns of a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum ReplacementPolicy {
    /// Least recently used (exact, per-set timestamps).
    #[default]
    Lru,
    /// First in, first out (evict the line filled longest ago).
    Fifo,
    /// Bit-PLRU: one "recently used" bit per way, cleared en masse when all are set.
    BitPlru,
    /// Round-robin over the allowed columns.
    RoundRobin,
    /// Pseudo-random selection (deterministic xorshift, seeded per set).
    Random,
}

impl ReplacementPolicy {
    /// All supported policies, for sweeps and ablations.
    pub const ALL: [ReplacementPolicy; 5] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::BitPlru,
        ReplacementPolicy::RoundRobin,
        ReplacementPolicy::Random,
    ];
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::BitPlru => "bit-plru",
            ReplacementPolicy::RoundRobin => "round-robin",
            ReplacementPolicy::Random => "random",
        };
        f.write_str(s)
    }
}

/// The replacement state of a whole cache: what the configured policy reads, for every
/// set, in one table.
///
/// LRU and FIFO keep one stamp per line, row-major by set: way `w` of set `s` is
/// `words[s * ways + w]`, the time of its last use (LRU) or fill (FIFO), and 0 until the
/// way is first touched. One clock serves every set; stamps are compared only within a
/// set, where a shared clock orders them as a per-set clock would. Bit-PLRU, round-robin
/// and random keep one word per set: the recently-used bits, the next way, or the
/// xorshift state (set `s` seeded `s + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplacementState {
    policy: ReplacementPolicy,
    ways: usize,
    /// Bit `w` set for every way `w` of a set.
    ways_mask: u64,
    /// LRU and FIFO: one stamp per line. The other policies: one word per set.
    words: Vec<u64>,
    clock: u64,
}

impl ReplacementState {
    /// Creates the replacement state of a cache of `sets` sets with `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds [`MAX_COLUMNS`](crate::mask::MAX_COLUMNS).
    pub fn new(policy: ReplacementPolicy, sets: usize, ways: usize) -> Self {
        let per_set = match policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => ways,
            ReplacementPolicy::BitPlru
            | ReplacementPolicy::RoundRobin
            | ReplacementPolicy::Random => 1,
        };
        let mut state = ReplacementState {
            policy,
            ways,
            ways_mask: ColumnMask::all(ways).bits(),
            words: vec![0; sets * per_set],
            clock: 0,
        };
        state.reset();
        state
    }

    /// Returns the state to exactly what [`ReplacementState::new`] built, in place. A
    /// backend reset to pristine state takes this path, so it allocates nothing.
    pub fn reset(&mut self) {
        self.clock = 0;
        if self.policy == ReplacementPolicy::Random {
            for (set, rng) in self.words.iter_mut().enumerate() {
                *rng = (set as u64 + 1) | 1;
            }
        } else {
            self.words.fill(0);
        }
    }

    /// Records a hit on `way` of `set`.
    ///
    /// Only LRU and bit-PLRU read hits; FIFO, round-robin and random ignore them, so this
    /// is a no-op for them. Hits dominate any realistic trace, and this runs once per hit
    /// off the way hint.
    #[inline]
    pub fn on_access(&mut self, set: usize, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru => self.stamp(set, way),
            ReplacementPolicy::BitPlru => self.touch_plru(set, way),
            ReplacementPolicy::Fifo | ReplacementPolicy::RoundRobin | ReplacementPolicy::Random => {
            }
        }
    }

    /// Records a fill (a miss that installed a new line) into `way` of `set`.
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => self.stamp(set, way),
            ReplacementPolicy::BitPlru => self.touch_plru(set, way),
            ReplacementPolicy::RoundRobin | ReplacementPolicy::Random => {}
        }
    }

    fn stamp(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.words[set * self.ways + way] = self.clock;
    }

    /// Sets `way`'s recently-used bit; when that sets every bit, only `way`'s stays.
    fn touch_plru(&mut self, set: usize, way: usize) {
        let bits = self.words[set] | 1 << way;
        self.words[set] = if bits == self.ways_mask {
            1 << way
        } else {
            bits
        };
    }

    /// Chooses the victim way of `set` for a miss restricted to `allowed` columns.
    ///
    /// `valid` is a bitmask of the set's ways currently holding a valid line (bit `w` set
    /// means way `w` is valid); bits at or above the way count are ignored, in `valid`
    /// and in `allowed`. Invalid ways inside the allowed mask are always used first, in
    /// ascending way order. Otherwise the policy picks among the allowed ways. The whole
    /// selection is bit arithmetic over the candidate mask — no allocation on this path,
    /// which a miss takes on every fill.
    ///
    /// Returns `None` if the mask selects no way (the caller treats the access as
    /// uncacheable, which cannot happen through the public `MemorySystem` API because
    /// masks are validated when tints are defined).
    pub fn victim(&mut self, set: usize, allowed: ColumnMask, valid: u64) -> Option<usize> {
        let candidates = allowed.bits() & self.ways_mask;
        if candidates == 0 {
            return None;
        }
        let empty = candidates & !valid;
        if empty != 0 {
            return Some(empty.trailing_zeros() as usize);
        }
        let chosen = match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                let row = set * self.ways;
                min_stamp_way(candidates, &self.words[row..row + self.ways])
            }
            ReplacementPolicy::BitPlru => {
                // The lowest allowed way not recently used, else the lowest allowed way.
                let stale = candidates & !self.words[set];
                let pick = if stale != 0 { stale } else { candidates };
                pick.trailing_zeros() as usize
            }
            ReplacementPolicy::RoundRobin => {
                // The first allowed way at or after the set's pointer, wrapping to the
                // lowest allowed way. The pointer is below `ways <= 64`, so the shift that
                // clears the ways below it is well defined.
                let next = &mut self.words[set];
                let at_or_after = candidates & (u64::MAX << *next);
                let pick = if at_or_after != 0 {
                    at_or_after
                } else {
                    candidates
                };
                let w = pick.trailing_zeros() as usize;
                *next = ((w + 1) % self.ways) as u64;
                w
            }
            ReplacementPolicy::Random => {
                // xorshift64
                let rng = &mut self.words[set];
                *rng ^= *rng << 13;
                *rng ^= *rng >> 7;
                *rng ^= *rng << 17;
                let k = (*rng % u64::from(candidates.count_ones())) as u32;
                nth_set_bit(candidates, k)
            }
        };
        Some(chosen)
    }
}

/// The lowest-indexed way among `candidates` with the minimal stamp — the bitmask
/// equivalent of `min_by_key` over ascending way order (first minimum wins).
fn min_stamp_way(candidates: u64, stamps: &[u64]) -> usize {
    let mut rest = candidates;
    let mut best = rest.trailing_zeros() as usize;
    rest &= rest - 1;
    while rest != 0 {
        let w = rest.trailing_zeros() as usize;
        if stamps[w] < stamps[best] {
            best = w;
        }
        rest &= rest - 1;
    }
    best
}

/// The `k`-th (0-based) set bit of `mask`, ascending. `k` must be less than
/// `mask.count_ones()`.
fn nth_set_bit(mask: u64, k: u32) -> usize {
    let mut rest = mask;
    for _ in 0..k {
        rest &= rest - 1;
    }
    rest.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_valid(n: usize) -> u64 {
        ColumnMask::all(n).bits()
    }

    #[test]
    fn invalid_ways_are_preferred() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 1, 4);
        let valid = 0b0101; // ways 0 and 2 valid, 1 and 3 empty
        let v = st.victim(0, ColumnMask::all(4), valid).unwrap();
        assert_eq!(v, 1);
        // restricted to column 3 which is invalid
        let v = st.victim(0, ColumnMask::single(3), valid).unwrap();
        assert_eq!(v, 3);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_mask() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 2, 4);
        for w in 0..4 {
            st.on_fill(1, w);
        }
        st.on_access(1, 0);
        st.on_access(1, 1);
        // way 2 is now the LRU of the full mask
        assert_eq!(st.victim(1, ColumnMask::all(4), all_valid(4)), Some(2));
        // but restricted to columns {0,1}, way 0 is older than way 1
        assert_eq!(
            st.victim(1, ColumnMask::from_columns([0, 1]), all_valid(4)),
            Some(0)
        );
        // set 0 was never touched: its lowest allowed way
        assert_eq!(st.victim(0, ColumnMask::all(4), all_valid(4)), Some(0));
    }

    #[test]
    fn fifo_ignores_rehits() {
        let mut st = ReplacementState::new(ReplacementPolicy::Fifo, 1, 2);
        st.on_fill(0, 0);
        st.on_fill(0, 1);
        st.on_access(0, 0); // re-hit must not refresh FIFO order
        assert_eq!(st.victim(0, ColumnMask::all(2), all_valid(2)), Some(0));
    }

    #[test]
    fn bit_plru_clears_when_saturated() {
        let mut st = ReplacementState::new(ReplacementPolicy::BitPlru, 1, 2);
        st.on_fill(0, 0);
        // way 1 not recently used
        assert_eq!(st.victim(0, ColumnMask::all(2), all_valid(2)), Some(1));
        st.on_fill(0, 1); // all bits set -> cleared except way 1
        assert_eq!(st.victim(0, ColumnMask::all(2), all_valid(2)), Some(0));
    }

    #[test]
    fn round_robin_cycles_through_allowed_ways() {
        let mut st = ReplacementState::new(ReplacementPolicy::RoundRobin, 1, 4);
        let mask = ColumnMask::from_columns([1, 3]);
        let v1 = st.victim(0, mask, all_valid(4)).unwrap();
        let v2 = st.victim(0, mask, all_valid(4)).unwrap();
        let v3 = st.victim(0, mask, all_valid(4)).unwrap();
        assert!(mask.contains(v1) && mask.contains(v2) && mask.contains(v3));
        assert_ne!(v1, v2);
        assert_eq!(v1, v3);
    }

    #[test]
    fn random_is_deterministic_for_a_seed_and_respects_mask() {
        let mut a = ReplacementState::new(ReplacementPolicy::Random, 3, 8);
        let mut b = ReplacementState::new(ReplacementPolicy::Random, 3, 8);
        let mask = ColumnMask::from_columns([2, 5, 6]);
        for step in 0..100 {
            let va = a.victim(step % 3, mask, all_valid(8)).unwrap();
            let vb = b.victim(step % 3, mask, all_valid(8)).unwrap();
            assert_eq!(va, vb);
            assert!(mask.contains(va));
        }
    }

    #[test]
    fn empty_mask_yields_no_victim() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 1, 4);
        assert_eq!(st.victim(0, ColumnMask::EMPTY, all_valid(4)), None);
    }

    /// A hit on the way its set touched last skips the replacement update
    /// (`ColumnCache::access`). That is exact only if repeating the last `on_access` or
    /// `on_fill` leaves every later victim, under every mask, as it was.
    #[test]
    fn repeating_the_last_touch_changes_no_later_victim() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for policy in ReplacementPolicy::ALL {
            for ways in [1usize, 2, 3, 4, 8] {
                let everything = all_valid(ways);
                let mut plain = ReplacementState::new(policy, 1, ways);
                let mut repeated = plain.clone();
                for step in 0..300 {
                    let touched = if draw(2) == 0 {
                        let way = draw(ways as u64) as usize;
                        plain.on_access(0, way);
                        repeated.on_access(0, way);
                        way
                    } else {
                        let mask = ColumnMask::from_bits(1 + draw(everything));
                        let way = plain
                            .victim(0, mask, everything)
                            .expect("mask is not empty");
                        assert_eq!(repeated.victim(0, mask, everything), Some(way));
                        plain.on_fill(0, way);
                        repeated.on_fill(0, way);
                        way
                    };
                    for _ in 0..draw(3) {
                        repeated.on_access(0, touched);
                    }
                    for bits in 1..=everything {
                        let mask = ColumnMask::from_bits(bits);
                        assert_eq!(
                            plain.clone().victim(0, mask, everything),
                            repeated.clone().victim(0, mask, everything),
                            "{policy}, {ways} ways, step {step}, mask {mask}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reset_matches_fresh_construction() {
        for policy in ReplacementPolicy::ALL {
            let mut st = ReplacementState::new(policy, 3, 4);
            for set in 0..3 {
                for w in 0..4 {
                    st.on_fill(set, w);
                    st.on_access(set, w);
                }
                st.victim(set, ColumnMask::all(4), all_valid(4));
            }
            st.reset();
            assert_eq!(st, ReplacementState::new(policy, 3, 4), "{policy}");
        }
    }

    #[test]
    fn policy_display_and_all() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "lru");
        assert_eq!(ReplacementPolicy::ALL.len(), 5);
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }
}
