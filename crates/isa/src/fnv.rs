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
//! stays. The 64-bit-lane hashes (the simulator's `state_hash` and the
//! NVM image fold) use the same constants one lane at a time and are
//! deliberately not routed through here.

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
