//! Shared EVQ8 range-quantization math.
//!
//! One implementation of the 8-bit uniform range fold, used by **both**
//! consumers in the workspace:
//!
//! - the federated uplink codec (`evfad_federated::compression`, wire tag
//!   `EVQ8`) — where byte-exact re-encode identity is a wire-format
//!   contract, and
//! - the int8 inference lane (`fastpath` / `evfad_nn::infer`) — where the
//!   same fold quantizes frozen layer weights for f32-accumulate scoring.
//!
//! Keeping the fold here (the lowest layer) means a change to the rounding
//! or range rules cannot silently diverge between the two: the codec's
//! re-encode identity test and the inference error-bound gates both pin
//! this exact code.
//!
//! # The fold
//!
//! Only **finite** values participate in the range: NaN and ±∞ are skipped
//! (callers transmit or handle them out of band). With no finite value at
//! all, the range degenerates to `[0, 0]`. The step is `(max - min) / 255`
//! (256 levels), or exactly `0.0` for a constant/empty tensor — in which
//! case every code is 0 and decode returns `min` exactly.
//!
//! The result is defined by the serial fold — `f64::min`/`f64::max` over
//! the finite values in slice order — and [`QuantRange::fold`] reproduces
//! it bit for bit without running it in the common case:
//!
//! - It folds *order keys* (the `f64` bits with a negative value's
//!   magnitude bits flipped, so signed integer order is IEEE total order)
//!   in eight independent lanes. Integer min/max has no NaN rule and no
//!   loop-carried float compare, so the loop vectorises; `f64::min` lanes
//!   do not.
//! - Total order puts every NaN and ±∞ outside the finite values, so the
//!   slice is all-finite exactly when the key minimum and maximum are
//!   finite. Otherwise the serial fold runs: it must skip the specials,
//!   and the caller needs their positions anyway.
//! - Total order also separates −0.0 from +0.0, where `f64::min` may
//!   return either. `min` is shipped verbatim in the `EVQ8` header, so a
//!   slice whose minimum or maximum is a zero takes the serial fold too.
//!   For every other slice the extremes are unique as bit patterns and the
//!   two folds agree.

/// Independent accumulator lanes of the vectorised range fold.
const LANES: usize = 8;

/// 2^52: the smallest `f64` whose unit in the last place is 1.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Flips the magnitude bits of a negative `f64` bit pattern, so that signed
/// order of the result is IEEE total order ([`f64::total_cmp`]). The flip
/// is its own inverse.
#[inline(always)]
fn order_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Quantization range of one tensor: the minimum finite value and the
/// uniform step between the 256 levels.
///
/// # Examples
///
/// ```
/// use evfad_tensor::quant::QuantRange;
///
/// let r = QuantRange::from_values(&[-1.0, 0.5, 2.0, f64::NAN]);
/// assert_eq!(r.min, -1.0);
/// assert_eq!(r.step, 3.0 / 255.0);
/// // Extremes are exact.
/// assert_eq!(r.decode(r.encode(-1.0)), -1.0);
/// assert_eq!(r.decode(r.encode(2.0)), 2.0);
/// // Everything else is within half a step.
/// let v = 0.73;
/// assert!((r.decode(r.encode(v)) - v).abs() <= r.max_error());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantRange {
    /// Minimum finite value of the folded slice (`0.0` when none).
    pub min: f64,
    /// Uniform step between adjacent levels (`(max - min) / 255`, or `0.0`
    /// for a constant, empty, or fully non-finite slice).
    pub step: f64,
}

impl QuantRange {
    /// Folds a slice into its quantization range, skipping non-finite
    /// values. An empty or fully non-finite slice yields `{min: 0, step: 0}`.
    pub fn from_values(values: &[f64]) -> Self {
        Self::fold(values).0
    }

    /// Folds a slice into the range [`QuantRange::from_values`] describes
    /// and reports whether every value was finite — the condition under
    /// which [`QuantRange::encode_slice`]'s codes are the whole encoding,
    /// with no side records.
    ///
    /// The fold runs on order-preserving integer keys across independent
    /// lanes so it vectorises. Slices holding a non-finite value, or whose
    /// minimum or maximum is a zero, take the serial fold instead (see the
    /// module docs for why both cases need it).
    ///
    /// # Examples
    ///
    /// ```
    /// use evfad_tensor::quant::QuantRange;
    ///
    /// let (r, finite) = QuantRange::fold(&[-1.0, 0.5, 2.0]);
    /// assert!(finite);
    /// assert_eq!(r, QuantRange::from_values(&[-1.0, 0.5, 2.0]));
    /// assert!(!QuantRange::fold(&[1.0, f64::NAN]).1);
    /// ```
    pub fn fold(values: &[f64]) -> (Self, bool) {
        let mut lo = [i64::MAX; LANES];
        let mut hi = [i64::MIN; LANES];
        let chunks = values.chunks_exact(LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            for ((l, h), &v) in lo.iter_mut().zip(&mut hi).zip(chunk) {
                let k = order_key(v.to_bits() as i64);
                *l = (*l).min(k);
                *h = (*h).max(k);
            }
        }
        for &v in tail {
            let k = order_key(v.to_bits() as i64);
            lo[0] = lo[0].min(k);
            hi[0] = hi[0].max(k);
        }
        // NaN and ±∞ key beyond every finite value, so a finite minimum and
        // maximum prove the whole slice finite (an empty slice keys to NaN).
        let min = f64::from_bits(order_key(lo.into_iter().fold(i64::MAX, i64::min)) as u64);
        let max = f64::from_bits(order_key(hi.into_iter().fold(i64::MIN, i64::max)) as u64);
        if min.is_finite() && max.is_finite() && min != 0.0 && max != 0.0 {
            (Self::spanning(min, max), true)
        } else {
            Self::fold_serial(values)
        }
    }

    /// The serial fold: `f64::min`/`max` over the finite values, in slice
    /// order, plus the all-finite flag.
    fn fold_serial(values: &[f64]) -> (Self, bool) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut finite = true;
        for &v in values {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            } else {
                finite = false;
            }
        }
        // No finite value at all: empty or fully non-finite slice.
        if min > max {
            min = 0.0;
            max = 0.0;
        }
        (Self::spanning(min, max), finite)
    }

    /// The range whose 256 levels run from `min` to `max`.
    fn spanning(min: f64, max: f64) -> Self {
        let range = max - min;
        let step = if range > 0.0 { range / 255.0 } else { 0.0 };
        Self { min, step }
    }

    /// Encodes one finite value as the nearest of the 256 levels.
    ///
    /// Out-of-range values clamp to the extreme codes. With a zero step
    /// (constant/empty fold) every value maps to code 0. Callers are
    /// responsible for routing non-finite values around the codec (the
    /// wire format carries them verbatim as side records).
    pub fn encode(&self, v: f64) -> u8 {
        let mut code = [0];
        self.encode_slice(&[v], &mut code);
        code[0]
    }

    /// Encodes a slice into `codes`, `codes[i] == self.encode(values[i])`,
    /// as one branch-free loop that vectorises: the level
    /// `((v - min) / step).round()` clamped to `0..=255`, with a NaN level
    /// (a NaN input, or ∞/∞ from an overflowed range) mapping to 0.
    /// Callers still route non-finite values around the codec.
    ///
    /// # Panics
    ///
    /// Panics if `values` and `codes` differ in length.
    pub fn encode_slice(&self, values: &[f64], codes: &mut [u8]) {
        assert_eq!(values.len(), codes.len(), "encode_slice length mismatch");
        if self.step == 0.0 {
            codes.fill(0);
            return;
        }
        for (c, &v) in codes.iter_mut().zip(values) {
            // `max` drops a NaN quotient to 0 like the saturating `as u8`
            // cast does (`clamp` would keep the NaN); the level is then an
            // integer in 0..=255, and adding 2^52 places it exactly in the
            // low mantissa bits.
            #[allow(clippy::manual_clamp)]
            let level = ((v - self.min) / self.step).round().max(0.0).min(255.0);
            *c = (level + TWO_POW_52).to_bits() as u8;
        }
    }

    /// Decodes a level back to its representative value: `min + code·step`.
    pub fn decode(&self, code: u8) -> f64 {
        self.min + code as f64 * self.step
    }

    /// Worst-case absolute round-trip error over finite in-range values:
    /// half a step.
    pub fn max_error(&self) -> f64 {
        self.step / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slice_degenerates_to_zero_range() {
        let r = QuantRange::from_values(&[]);
        assert_eq!(
            r,
            QuantRange {
                min: 0.0,
                step: 0.0
            }
        );
        assert_eq!(r.encode(123.0), 0);
        assert_eq!(r.decode(0), 0.0);
        assert_eq!(r.max_error(), 0.0);
    }

    #[test]
    fn fully_non_finite_slice_degenerates_to_zero_range() {
        let r = QuantRange::from_values(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(
            r,
            QuantRange {
                min: 0.0,
                step: 0.0
            }
        );
    }

    #[test]
    fn constant_slice_is_exact() {
        let r = QuantRange::from_values(&[3.25, 3.25, 3.25]);
        assert_eq!(r.step, 0.0);
        assert_eq!(r.decode(r.encode(3.25)), 3.25);
    }

    #[test]
    fn non_finite_values_do_not_poison_the_range() {
        let with = QuantRange::from_values(&[1.0, f64::NAN, -3.0, f64::INFINITY]);
        let without = QuantRange::from_values(&[1.0, -3.0]);
        assert_eq!(with, without);
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_step() {
        let values: Vec<f64> = (0..100)
            .map(|i| (i * 37 % 100) as f64 * 0.013 - 0.5)
            .collect();
        let r = QuantRange::from_values(&values);
        for &v in &values {
            assert!((r.decode(r.encode(v)) - v).abs() <= r.max_error() + 1e-12);
        }
    }

    #[test]
    fn out_of_range_values_clamp_to_extreme_codes() {
        let r = QuantRange::from_values(&[0.0, 1.0]);
        assert_eq!(r.encode(-50.0), 0);
        assert_eq!(r.encode(50.0), 255);
    }
}
