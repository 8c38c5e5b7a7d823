//! Payload encoding/decoding primitives.
//!
//! Section payloads are flat little-endian field sequences. [`Enc`]
//! builds one; [`Dec`] walks one with every read bounds-checked — a
//! corrupted length field fails with a typed error *before* any
//! allocation is sized from it.

use crate::error::StoreError;

/// Little-endian payload builder. All multi-byte fields are written
/// little-endian regardless of host order, which is what the container's
/// endianness tag certifies.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Empty payload.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Continue writing at the end of `buf` (its bytes stay in front of
    /// the payload; [`Enc::into_payload`] hands the whole buffer back).
    pub fn from_vec(buf: Vec<u8>) -> Enc {
        Enc { buf }
    }

    /// Append a `u32`.
    #[inline]
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append a `u64`.
    #[inline]
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append an `f64` (IEEE-754 bits; round-trips exactly).
    #[inline]
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append a `u32` slice.
    pub fn u32s(&mut self, xs: &[u32]) {
        self.buf.reserve(xs.len() * 4);
        for &x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append an `f64` slice (bit-exact).
    pub fn f64s(&mut self, xs: &[f64]) {
        self.buf.reserve(xs.len() * 8);
        for &x in xs {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish: the payload bytes.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian payload reader.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Walk `payload` from the start.
    pub fn new(payload: &'a [u8]) -> Dec<'a> {
        Dec {
            buf: payload,
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if n > self.remaining() {
            return Err(StoreError::ShortSection {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` (IEEE-754 bits).
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u64` dimension/counter field into `usize`, rejecting
    /// values that overflow the platform (the shared helper every codec
    /// uses for scalar dimensions whose array reads are bounds-checked
    /// separately; use [`Dec::count`] when the field sizes an upcoming
    /// array read directly).
    pub fn dim(&mut self) -> Result<usize, StoreError> {
        let raw = self.u64()?;
        usize::try_from(raw)
            .map_err(|_| StoreError::Malformed(format!("field value {raw} overflows usize")))
    }

    /// Read a `u64` element count that must describe data small enough
    /// to still fit in the payload (`elem_bytes` per element). This is
    /// the OOM guard: the count is validated against the bytes actually
    /// present *before* any caller allocates from it.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, StoreError> {
        let count = self.dim()?;
        let need = count.checked_mul(elem_bytes).ok_or_else(|| {
            StoreError::Malformed(format!("element count {count} overflows usize"))
        })?;
        if need > self.remaining() {
            return Err(StoreError::ShortSection {
                need,
                have: self.remaining(),
            });
        }
        Ok(count)
    }

    /// Read `count` `u32`s.
    pub fn u32s(&mut self, count: usize) -> Result<Vec<u32>, StoreError> {
        let need = count
            .checked_mul(4)
            .ok_or_else(|| StoreError::Malformed(format!("u32 count {count} overflows")))?;
        let raw = self.take(need)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Read `count` `f64`s (bit-exact).
    pub fn f64s(&mut self, count: usize) -> Result<Vec<f64>, StoreError> {
        let need = count
            .checked_mul(8)
            .ok_or_else(|| StoreError::Malformed(format!("f64 count {count} overflows")))?;
        let raw = self.take(need)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    /// Read `count` finite `f64`s (bit-exact), rejecting NaN and ±∞ in
    /// the same pass with a [`StoreError::Malformed`] that names `field`.
    pub fn finite_f64s(&mut self, count: usize, field: &str) -> Result<Vec<f64>, StoreError> {
        let need = count
            .checked_mul(8)
            .ok_or_else(|| StoreError::Malformed(format!("f64 count {count} overflows")))?;
        let raw = self.take(need)?;
        let mut out = Vec::with_capacity(count);
        for c in raw.chunks_exact(8) {
            let x = f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()));
            if !x.is_finite() {
                return Err(StoreError::Malformed(format!(
                    "non-finite value {x} in field `{field}`"
                )));
            }
            out.push(x);
        }
        Ok(out)
    }

    /// Assert the payload is fully consumed — a section with trailing
    /// bytes was written by a different schema than it claims.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Malformed(format!(
                "{} trailing bytes in section payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_slice_roundtrip() {
        let mut e = Enc::new();
        assert!(e.is_empty());
        e.u32(7);
        e.u64(u64::MAX - 1);
        e.f64(-0.125);
        e.u32s(&[1, 2, 3]);
        e.f64s(&[f64::NAN, 1.5]);
        assert_eq!(e.len(), 4 + 8 + 8 + 12 + 16);
        let p = e.into_payload();
        let mut d = Dec::new(&p);
        assert_eq!(d.u32().unwrap(), 7);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert_eq!(d.u32s(3).unwrap(), vec![1, 2, 3]);
        let fs = d.f64s(2).unwrap();
        assert!(fs[0].is_nan(), "NaN bits round-trip");
        assert_eq!(fs[1], 1.5);
        d.finish().unwrap();
    }

    #[test]
    fn finite_f64s_names_the_field_of_a_non_finite_value() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut e = Enc::new();
            e.f64s(&[1.0, -0.0, bad, 2.0]);
            let p = e.into_payload();
            match Dec::new(&p).finite_f64s(4, "samples") {
                Err(StoreError::Malformed(msg)) => assert!(msg.contains("`samples`"), "{msg}"),
                other => panic!("{bad}: expected Malformed, got {other:?}"),
            }
        }
        let mut e = Enc::new();
        e.f64s(&[f64::MAX, -0.0, f64::MIN_POSITIVE / 2.0]);
        let p = e.into_payload();
        let mut d = Dec::new(&p);
        let xs = d.finite_f64s(3, "m2").unwrap();
        assert_eq!(xs[0], f64::MAX);
        assert_eq!(xs[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(xs[2], f64::MIN_POSITIVE / 2.0);
        d.finish().unwrap();
        assert!(matches!(
            Dec::new(&p).finite_f64s(4, "m2"),
            Err(StoreError::ShortSection { .. })
        ));
    }

    #[test]
    fn short_reads_are_typed_errors() {
        let p = [1u8, 2, 3];
        assert!(matches!(
            Dec::new(&p).u32(),
            Err(StoreError::ShortSection { need: 4, have: 3 })
        ));
        assert!(matches!(
            Dec::new(&p).u64(),
            Err(StoreError::ShortSection { .. })
        ));
        assert!(matches!(
            Dec::new(&p).u32s(1000),
            Err(StoreError::ShortSection { .. })
        ));
    }

    #[test]
    fn count_guards_allocation_against_payload_bounds() {
        // count claims 2^60 elements; the payload has 8 bytes left —
        // must error before any allocation is attempted
        let mut e = Enc::new();
        e.u64(1u64 << 60);
        e.u64(0);
        let p = e.into_payload();
        let mut d = Dec::new(&p);
        assert!(matches!(
            d.count(8),
            Err(StoreError::ShortSection { .. }) | Err(StoreError::Malformed(_))
        ));
        // a sane count passes and leaves the data readable
        let mut e = Enc::new();
        e.u64(2);
        e.u32s(&[5, 6]);
        let p = e.into_payload();
        let mut d = Dec::new(&p);
        let n = d.count(4).unwrap();
        assert_eq!(d.u32s(n).unwrap(), vec![5, 6]);
        d.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut e = Enc::new();
        e.u32(1);
        e.u32(2);
        let p = e.into_payload();
        let mut d = Dec::new(&p);
        d.u32().unwrap();
        assert!(matches!(d.finish(), Err(StoreError::Malformed(_))));
    }
}
