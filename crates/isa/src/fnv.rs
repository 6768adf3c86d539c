//! The suite's byte-wise FNV-1a: one fold for every persisted identity.
//!
//! Campaign and check-spec fingerprints, per-item run keys, compiled
//! program and region fingerprints, and the served memo-directory key
//! all fold their fields through these helpers, so a journal, memo store
//! or job directory written by one crate is keyed exactly as another
//! crate reads it.
//!
//! [`FNV_PRIME`] is `0x1000_0000_01b3`, not the published 64-bit FNV
//! prime `0x100_0000_01b3`. Every persisted key was minted with it, so it
//! stays.
//!
//! The simulator's state hashes (`state_hash`, `drain_hash` and the NVM
//! image fold under them) eat whole 64-bit lanes instead, through
//! [`fnv_lane`]. They are in-memory join and memo keys only: nothing
//! persists them.

/// The FNV-1a offset basis every fold starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The multiplier applied after each byte.
pub const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Folds `bytes` into `h`, one byte at a time.
pub fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds the eight little-endian bytes of `v` into `h`.
pub fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// Folds `s` into `h`, length first so adjacent strings cannot alias.
pub fn fnv_str(h: u64, s: &str) -> u64 {
    fnv_bytes(fnv_u64(h, s.len() as u64), s.as_bytes())
}

/// Eats one 64-bit `lane` into `h`: `(h ^ mix(lane)) * FNV_PRIME`, where
/// `mix` is the splitmix64 finalizer.
///
/// The plain lane fold `(h ^ lane) * FNV_PRIME` has a structured
/// collision. For an odd `h`, `h ^ !1 == h.wrapping_neg()`, and negation
/// commutes with the multiply, so flipping two lanes between `x` and
/// `x ^ !1` (for example a register between 0 and -2, sign-extended)
/// cancels whenever the lanes between them are even. The mixer breaks
/// that: it is a bijection, so distinct lanes stay distinct, and it maps
/// 0 to 0, so a zero lane is still a bare multiply.
pub fn fnv_lane(h: u64, lane: u64) -> u64 {
    (h ^ crate::rng::finalize(lane)).wrapping_mul(FNV_PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The plain lane fold the mixer replaced.
    fn plain_lane(h: u64, lane: u64) -> u64 {
        (h ^ lane).wrapping_mul(FNV_PRIME)
    }

    fn fold(lane: fn(u64, u64) -> u64, lanes: &[u64]) -> u64 {
        lanes.iter().fold(FNV_OFFSET, |h, &x| lane(h, x))
    }

    #[test]
    fn flipping_two_lanes_between_x_and_x_xor_not_one_moves_the_hash() {
        // Even lanes keep the plain fold's state odd, so there every such
        // flip pair cancels; the mixed fold must never collide.
        let mut rng = SplitMix64::new(0x5eed);
        for _ in 0..20_000 {
            let len = rng.range_u64(2, 24) as usize;
            let lanes: Vec<u64> = (0..len)
                .map(|_| match rng.range_u64(0, 4) {
                    0 => 0,
                    1 => !1,
                    _ => rng.next_u64() & !1,
                })
                .collect();
            let i = rng.range_u64(0, len as u64 - 1) as usize;
            let j = rng.range_u64(i as u64 + 1, len as u64) as usize;
            let mut flipped = lanes.clone();
            flipped[i] ^= !1;
            flipped[j] ^= !1;
            assert_eq!(fold(plain_lane, &lanes), fold(plain_lane, &flipped));
            assert_ne!(
                fold(fnv_lane, &lanes),
                fold(fnv_lane, &flipped),
                "{lanes:x?} lanes {i} and {j}"
            );
        }
    }
}
