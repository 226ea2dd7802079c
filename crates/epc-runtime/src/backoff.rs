//! Deterministic retry backoff and the mixers behind it: the hash
//! functions of every seeded draw in the fault-tolerance layer.
//!
//! Fault decisions, fleet city specs and retry jitter are pure functions
//! of a seed and a stable key — never of OS entropy or the clock — so a
//! chaos run replays bit for bit at any thread count.

/// SplitMix64 — the avalanche mixer behind every deterministic draw.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte stream: turns a string key (a record key, a city
/// id, an address) into a `u64` for [`splitmix64`] and [`Backoff`].
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A deterministic, seedable exponential-backoff schedule with jitter.
///
/// Delays are a pure function of `(seed, key, attempt)` — no clocks, no
/// RNG state — so a retried run reproduces the exact same schedule. The
/// geocoder keys it by address, the fleet coordinator by city id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Base delay of the first retry, in milliseconds. `0` disables
    /// sleeping entirely (the schedule is still computed and reported).
    pub base_ms: u64,
    /// Multiplier applied per attempt.
    pub factor: u64,
    /// Upper bound on any single delay.
    pub max_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for Backoff {
    /// 0ms base: schedules are computed (and testable) but never slept —
    /// the right default for an offline reproduction.
    fn default() -> Self {
        Backoff {
            base_ms: 0,
            factor: 2,
            max_ms: 10_000,
            seed: 0x5eed,
        }
    }
}

impl Backoff {
    /// The delay before retry number `attempt` (1-based) for `key`.
    ///
    /// Exponential growth capped at `max_ms`, with deterministic jitter in
    /// `[half, full]` of the capped delay.
    pub fn delay_ms(&self, key: u64, attempt: u32) -> u64 {
        if self.base_ms == 0 {
            return 0;
        }
        let exp = self
            .base_ms
            .saturating_mul(self.factor.saturating_pow(attempt.saturating_sub(1)))
            .min(self.max_ms);
        let h = splitmix64(
            self.seed
                .wrapping_add(key)
                .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(attempt as u64)),
        );
        let half = exp / 2;
        half + h % (exp - half + 1)
    }

    /// The full deterministic schedule for `key` over `retries` retries.
    pub fn schedule(&self, key: u64, retries: u32) -> Vec<u64> {
        (1..=retries).map(|a| self.delay_ms(key, a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixers_match_their_reference_values() {
        // FNV-1a of "" is the offset basis; of "a", the published value.
        assert_eq!(fnv1a("".bytes()), 0xcbf29ce484222325);
        assert_eq!(fnv1a("a".bytes()), 0xaf63dc4c8601ec8c);
        // The first output of the SplitMix64 stream seeded with 0.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let b = Backoff {
            base_ms: 100,
            factor: 2,
            max_ms: 1_000,
            seed: 7,
        };
        let key = fnv1a("via roma10".bytes());
        let s1 = b.schedule(key, 6);
        let s2 = b.schedule(key, 6);
        assert_eq!(s1, s2, "same seed and key → same schedule");
        for (i, &d) in s1.iter().enumerate() {
            let uncapped = (100u64 * 2u64.pow(i as u32)).min(1_000);
            assert!(d >= uncapped / 2 && d <= uncapped, "delay {d} at retry {i}");
        }
        // A different seed gives a different schedule (with overwhelming
        // probability on a 6-delay vector).
        let other = Backoff { seed: 8, ..b };
        assert_ne!(other.schedule(key, 6), s1);
        // Zero base → never sleeps.
        assert_eq!(Backoff::default().schedule(key, 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn default_base_zero_never_sleeps() {
        let b = Backoff::default();
        let key = fnv1a("torino".bytes());
        assert_eq!(b.delay_ms(key, 1), 0);
        assert_eq!(b.schedule(key, 3), vec![0, 0, 0]);
    }

    #[test]
    fn schedule_is_deterministic_per_city_and_attempt() {
        let b = Backoff {
            base_ms: 100,
            ..Backoff::default()
        };
        let (milano, genova) = (fnv1a("milano".bytes()), fnv1a("genova".bytes()));
        assert_eq!(b.delay_ms(milano, 2), b.delay_ms(milano, 2));
        assert_ne!(
            b.schedule(milano, 4),
            b.schedule(genova, 4),
            "different cities draw different jitter"
        );
    }

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let b = Backoff {
            base_ms: 100,
            factor: 2,
            max_ms: 500,
            seed: 1,
        };
        let key = fnv1a("x".bytes());
        for attempt in 1..10 {
            let d = b.delay_ms(key, attempt);
            let full = (100u64 * 2u64.pow(attempt.saturating_sub(1).min(20))).min(500);
            assert!(d >= full / 2 && d <= full, "attempt {attempt}: {d}");
        }
        assert!(b.delay_ms(key, 9) <= 500);
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let b = Backoff {
            base_ms: u64::MAX / 2,
            factor: u64::MAX,
            max_ms: u64::MAX,
            seed: 0,
        };
        let d = b.delay_ms(fnv1a("x".bytes()), u32::MAX);
        assert!(d >= u64::MAX / 2);
    }
}
