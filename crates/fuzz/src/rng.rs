//! Deterministic fuzzing randomness.
//!
//! Every iteration of every target draws from a [`FuzzRng`] derived from
//! `(run seed, target name, iteration index)`, so a single iteration of a
//! long campaign can be re-generated in isolation: same seed → same
//! input bytes → same outcome, which is what makes the engine's
//! iteration trace bit-deterministic and any crasher reproducible from
//! its `(target, seed, iteration)` coordinates alone.

use casbn_store::{fnv_mix, FNV_BASIS};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// ChaCha8-backed random source with the small-integer helpers the
/// mutators and generators need.
#[derive(Debug)]
pub struct FuzzRng {
    inner: ChaCha8Rng,
}

impl FuzzRng {
    /// RNG for one `(seed, target, iteration)` coordinate.
    ///
    /// The three inputs are folded into the 256-bit ChaCha key with
    /// FNV-1a mixing so neighbouring iterations (and same-named
    /// iterations of different targets) get unrelated streams.
    pub fn for_iteration(seed: u64, target: &str, iteration: u64) -> FuzzRng {
        let mut h = fnv_mix(FNV_BASIS, seed);
        for b in target.bytes() {
            h = fnv_mix(h, u64::from(b));
        }
        h = fnv_mix(h, iteration);
        let mut key = [0u8; 32];
        for word in key.chunks_exact_mut(8) {
            h = fnv_mix(h, 0x9e37_79b9_7f4a_7c15);
            word.copy_from_slice(&h.to_le_bytes());
        }
        FuzzRng {
            inner: ChaCha8Rng::from_seed(key),
        }
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw in `0..n` (`0` when `n == 0`).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.u64() % n as u64) as usize
        }
    }

    /// Uniform draw in `lo..hi` (`lo` when the range is empty).
    #[inline]
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi.saturating_sub(lo))
    }

    /// True with probability `num / den`.
    #[inline]
    pub fn chance(&mut self, num: u32, den: u32) -> bool {
        debug_assert!(den > 0);
        (self.u64() % den as u64) < num as u64
    }

    /// A uniformly chosen element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// Fill `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// An "interesting" magnitude for length/count/id tampering: the
    /// boundary values that historically break binary parsers (0, 1,
    /// powers of two ± 1, type maxima) plus the occasional uniform
    /// draw.
    pub fn interesting_u64(&mut self) -> u64 {
        const EDGES: &[u64] = &[
            0,
            1,
            2,
            7,
            8,
            63,
            64,
            127,
            128,
            255,
            256,
            0xFFFF,
            0x1_0000,
            u32::MAX as u64 - 1,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ];
        if self.chance(3, 4) {
            *self.pick(EDGES)
        } else {
            self.u64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_coordinates_same_stream() {
        let mut a = FuzzRng::for_iteration(7, "edge-list", 42);
        let mut b = FuzzRng::for_iteration(7, "edge-list", 42);
        for _ in 0..64 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn coordinates_decorrelate_streams() {
        let base = FuzzRng::for_iteration(7, "edge-list", 42).u64();
        assert_ne!(base, FuzzRng::for_iteration(8, "edge-list", 42).u64());
        assert_ne!(base, FuzzRng::for_iteration(7, "replay", 42).u64());
        assert_ne!(base, FuzzRng::for_iteration(7, "edge-list", 43).u64());
    }

    #[test]
    fn below_and_range_respect_bounds() {
        let mut r = FuzzRng::for_iteration(1, "t", 0);
        for _ in 0..200 {
            assert!(r.below(10) < 10);
            let x = r.range(5, 9);
            assert!((5..9).contains(&x));
        }
        assert_eq!(r.below(0), 0);
        assert_eq!(r.range(3, 3), 3);
    }

    #[test]
    fn interesting_values_hit_edges() {
        let mut r = FuzzRng::for_iteration(2, "t", 0);
        let mut saw_max = false;
        let mut saw_zero = false;
        for _ in 0..500 {
            match r.interesting_u64() {
                0 => saw_zero = true,
                u64::MAX => saw_max = true,
                _ => {}
            }
        }
        assert!(saw_zero && saw_max);
    }
}
