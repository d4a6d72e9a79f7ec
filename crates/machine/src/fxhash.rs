//! A fast, deterministic hasher for host-side bookkeeping maps.
//!
//! The simulator's hot paths consult `HashMap`s on every modeled
//! syscall (the kernel's dentry cache and heat counters, the MBM's
//! bitmap cache). `std`'s default SipHash is DoS-hardened and *seeded
//! per process*, which costs tens of nanoseconds per probe and makes
//! iteration order vary run to run. These maps are keyed by simulation
//! state — physical addresses, PIDs and kernel path strings — so the
//! multiply-xor scheme popularized by rustc's `FxHasher` is the right
//! trade: a few cycles per word and a *fixed* seed, so any accidental
//! dependence on iteration order is at least reproducible instead of
//! per-process random. Some keys are the guest's choice (a table PA
//! reaches Hypersec's maps through `PT_REGISTER_TABLE`), so a hostile
//! guest could pick colliding keys; that costs host time only, never a
//! simulated result.
//!
//! **`finish` mixes.** The multiply makes the product's low bits a
//! function of the key's low bits alone, so every page-aligned key (a
//! table PA) hashes to a product whose low 12 bits are zero. hashbrown
//! picks a bucket from exactly those low bits, so a map of table pages
//! would probe one bucket group for every key. `finish` rotates the
//! state left by 26, as rustc-hash 2 does, which brings the product's
//! well-mixed high bits down to where the bucket index is taken.
//!
//! **Host-side only.** Which hasher a map uses changes no simulated
//! cycle, statistic or bus transfer — those follow a map's *contents*,
//! not its probe cost — as long as its iteration order stays out of the
//! model. So a host map is iterated only into a sorted collection (or
//! an order-free fold such as a count); its `keys()`, `values()` or
//! `iter()` order never drives anything that touches simulated state.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The `FxHasher` multiplier (64-bit golden-ratio constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// How far [`FxHasher::finish`] rotates the state: it brings the
/// product's high bits, which every key bit reaches, down into the low
/// bits a table indexes by (rustc-hash 2's choice, good up to 2^26
/// buckets).
const FINISH_ROTATE: u32 = 26;

/// Multiply-xor hasher with a fixed seed; see the module docs for why
/// this is safe and desirable here.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" diverge.
            self.add_word(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(b"/tmp/untar/d0/f1"), hash_of(b"/tmp/untar/d0/f1"));
        let mut a = FxHasher::default();
        a.write_u64(0x4000);
        let mut b = FxHasher::default();
        b.write_u64(0x4000);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_tail_lengths() {
        assert_ne!(hash_of(b"ab"), hash_of(b"ab\0"));
        assert_ne!(hash_of(b""), hash_of(b"\0"));
    }

    /// Aligned keys must spread over a table's bucket bits: at every
    /// stride a map sees (a table page, a dentry, a cache line, a word),
    /// the low 10 bits of 1,024 keys' hashes take at least 256 values
    /// (an unmixed product takes 1, 16, 16 and 128).
    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        for stride in [4096u64, 192, 64, 8] {
            let buckets: FxHashSet<u64> = (1..=1024u64)
                .map(|i| {
                    let mut h = FxHasher::default();
                    h.write_u64(i * stride);
                    h.finish() & 0x3ff
                })
                .collect();
            assert!(
                buckets.len() >= 256,
                "stride {stride}: {} distinct low-10-bit values",
                buckets.len()
            );
        }
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<String, u64> = FxHashMap::default();
        m.insert("/tmp".to_string(), 1);
        m.insert("/tmp/a".to_string(), 2);
        // Borrowed-str probes hit the owned-String keys.
        assert_eq!(m.get("/tmp/a"), Some(&2));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }
}
