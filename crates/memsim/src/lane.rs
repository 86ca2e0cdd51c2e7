//! Lane words: the machine words packed coverage lanes ride in, one lane
//! per bit.
//!
//! The sealed [`LaneWord`] trait covers `u64` and the `[u64; N]` blocks of
//! [`WideWord`]. [`W256`] (`[u64; 4]`, one AVX2 register) is the lane block
//! of the projected words (`projection.rs`) that coverage, campaigns,
//! generation and minimisation run on, and the word of the packed
//! backend's full-memory reference walk. `u64` stays for
//! [`PackedSimulator`](crate::PackedSimulator)'s default word, which test
//! harnesses walk as a cheap full-memory reference. The `[u64; N]`
//! representation keeps every operation branch-free and
//! auto-vectorizable.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not, Shl, Shr};

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl<const N: usize> Sealed for super::WideWord<N> {}
}

/// A fixed-width machine word holding one packed coverage lane per bit.
///
/// Sealed: the packed engine's correctness argument (lane-local bitwise
/// semantics, byte-identical across widths) is proven per implementation, so
/// the set of carriers is closed — `u64` plus the `[u64; N]` blocks defined
/// here. All operations are branch-free on the lane dimension.
pub trait LaneWord:
    sealed::Sealed
    + Copy
    + Eq
    + fmt::Debug
    + Send
    + Sync
    + 'static
    + Not<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + BitAndAssign
    + BitOrAssign
    + BitXorAssign
{
    /// Number of lanes (bits) the word carries.
    const BITS: usize;
    /// Number of 64-bit limbs backing the word (`BITS / 64`).
    const LIMBS: usize;
    /// The all-zero word.
    const ZERO: Self;
    /// The all-one word.
    const ALL: Self;

    /// The mask with the low `n` lanes set, for `1 ≤ n ≤ Self::BITS`.
    ///
    /// This is the shared width-generic helper behind every lane-mask
    /// construction (simulator lane masks, merge compaction, candidate
    /// pools): the old `u64` code special-cased `n == 64` because `1 << 64`
    /// overflows; the boundary now lives in exactly one place per width.
    fn full_mask(n: usize) -> Self;
    /// The word with only lane `lane` set.
    fn bit(lane: usize) -> Self;
    /// Whether lane `lane` is set.
    fn test_bit(&self, lane: usize) -> bool;
    /// Whether no lane is set.
    fn is_zero(&self) -> bool;
    /// Number of set lanes.
    fn count_ones(&self) -> u32;
    /// Index of the lowest set lane (`Self::BITS` when empty).
    fn trailing_zeros(&self) -> u32;
    /// Clears the lowest set lane (`x &= x - 1` on scalar words).
    fn clear_lowest_bit(&mut self);
    /// The `index`-th 64-bit limb (lanes `64*index .. 64*index + 64`).
    ///
    /// Limb access is what keeps per-lane scans width-independent: iterating
    /// the set lanes of a wide word limb by limb costs `O(1)` per lane, where
    /// building per-lane `W::bit` masks would cost `O(LIMBS)` per lane.
    fn limb(&self, index: usize) -> u64;
    /// Mutable access to the `index`-th 64-bit limb.
    fn limb_mut(&mut self, index: usize) -> &mut u64;
}

impl LaneWord for u64 {
    const BITS: usize = 64;
    const LIMBS: usize = 1;
    const ZERO: Self = 0;
    const ALL: Self = u64::MAX;

    #[inline]
    fn full_mask(n: usize) -> Self {
        debug_assert!((1..=<Self as LaneWord>::BITS).contains(&n));
        if n == <Self as LaneWord>::BITS {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    #[inline]
    fn bit(lane: usize) -> Self {
        1u64 << lane
    }

    #[inline]
    fn test_bit(&self, lane: usize) -> bool {
        self & (1u64 << lane) != 0
    }

    #[inline]
    fn is_zero(&self) -> bool {
        *self == 0
    }

    #[inline]
    fn count_ones(&self) -> u32 {
        u64::count_ones(*self)
    }

    #[inline]
    fn trailing_zeros(&self) -> u32 {
        u64::trailing_zeros(*self)
    }

    #[inline]
    fn clear_lowest_bit(&mut self) {
        *self &= self.wrapping_sub(1);
    }

    #[inline]
    fn limb(&self, index: usize) -> u64 {
        debug_assert_eq!(index, 0);
        let _ = index;
        *self
    }

    #[inline]
    fn limb_mut(&mut self, index: usize) -> &mut u64 {
        debug_assert_eq!(index, 0);
        let _ = index;
        self
    }
}

/// A lane block of `N` 64-bit limbs: `64 * N` packed lanes per word. Lane `i`
/// lives in bit `i % 64` of limb `i / 64`. All bitwise operations are
/// limb-wise loops over fixed-size arrays, which the compiler unrolls and
/// vectorizes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct WideWord<const N: usize>([u64; N]);

/// A 256-lane block (`[u64; 4]`).
pub type W256 = WideWord<4>;

impl<const N: usize> fmt::Debug for WideWord<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WideWord<{N}>[")?;
        // Most-significant limb first, like an integer literal.
        for (index, limb) in self.0.iter().rev().enumerate() {
            if index > 0 {
                write!(f, "_")?;
            }
            write!(f, "{limb:016x}")?;
        }
        write!(f, "]")
    }
}

/// The word with no lane set.
impl<const N: usize> Default for WideWord<N> {
    fn default() -> Self {
        WideWord([0; N])
    }
}

impl<const N: usize> Not for WideWord<N> {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for limb in &mut self.0 {
            *limb = !*limb;
        }
        self
    }
}

macro_rules! wide_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $assign_op:tt) => {
        impl<const N: usize> $trait for WideWord<N> {
            type Output = Self;
            #[inline]
            fn $method(mut self, rhs: Self) -> Self {
                self.$assign_method(rhs);
                self
            }
        }
        impl<const N: usize> $assign_trait for WideWord<N> {
            #[inline]
            fn $assign_method(&mut self, rhs: Self) {
                for (limb, other) in self.0.iter_mut().zip(rhs.0.iter()) {
                    *limb $assign_op *other;
                }
            }
        }
    };
}

wide_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
wide_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);
wide_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);

/// Moves every lane `by` lanes up (towards limb `N - 1`); lanes shifted past
/// the top are dropped, like `u64 << by`. `by` may be any width.
impl<const N: usize> Shl<usize> for WideWord<N> {
    type Output = Self;
    #[inline]
    fn shl(self, by: usize) -> Self {
        let (limbs, bits) = (by / 64, by % 64);
        let mut shifted = [0u64; N];
        for (index, limb) in shifted.iter_mut().enumerate().skip(limbs) {
            let from = index - limbs;
            *limb = self.0[from] << bits;
            if bits > 0 && from > 0 {
                *limb |= self.0[from - 1] >> (64 - bits);
            }
        }
        WideWord(shifted)
    }
}

/// Moves every lane `by` lanes down (towards limb 0); lanes shifted below
/// lane 0 are dropped, like `u64 >> by`. `by` may be any width.
impl<const N: usize> Shr<usize> for WideWord<N> {
    type Output = Self;
    #[inline]
    fn shr(self, by: usize) -> Self {
        let (limbs, bits) = (by / 64, by % 64);
        let mut shifted = [0u64; N];
        for (index, limb) in shifted.iter_mut().enumerate().take(N.saturating_sub(limbs)) {
            let from = index + limbs;
            *limb = self.0[from] >> bits;
            if bits > 0 && from + 1 < N {
                *limb |= self.0[from + 1] << (64 - bits);
            }
        }
        WideWord(shifted)
    }
}

impl<const N: usize> LaneWord for WideWord<N> {
    const BITS: usize = 64 * N;
    const LIMBS: usize = N;
    const ZERO: Self = WideWord([0; N]);
    const ALL: Self = WideWord([u64::MAX; N]);

    #[inline]
    fn full_mask(n: usize) -> Self {
        debug_assert!(n >= 1 && n <= Self::BITS);
        let mut limbs = [0u64; N];
        let full = n / 64;
        for limb in limbs.iter_mut().take(full) {
            *limb = u64::MAX;
        }
        if full < N && !n.is_multiple_of(64) {
            limbs[full] = (1u64 << (n % 64)) - 1;
        }
        WideWord(limbs)
    }

    #[inline]
    fn bit(lane: usize) -> Self {
        debug_assert!(lane < Self::BITS);
        let mut limbs = [0u64; N];
        limbs[lane / 64] = 1u64 << (lane % 64);
        WideWord(limbs)
    }

    #[inline]
    fn test_bit(&self, lane: usize) -> bool {
        debug_assert!(lane < Self::BITS);
        self.0[lane / 64] & (1u64 << (lane % 64)) != 0
    }

    #[inline]
    fn is_zero(&self) -> bool {
        // One OR-reduction rather than a branch per limb.
        self.0.iter().fold(0, |any, &limb| any | limb) == 0
    }

    #[inline]
    fn count_ones(&self) -> u32 {
        self.0.iter().map(|limb| limb.count_ones()).sum()
    }

    #[inline]
    fn trailing_zeros(&self) -> u32 {
        let mut zeros = 0u32;
        for limb in &self.0 {
            if *limb != 0 {
                return zeros + limb.trailing_zeros();
            }
            zeros += 64;
        }
        zeros
    }

    #[inline]
    fn clear_lowest_bit(&mut self) {
        for limb in &mut self.0 {
            if *limb != 0 {
                *limb &= limb.wrapping_sub(1);
                return;
            }
        }
    }

    #[inline]
    fn limb(&self, index: usize) -> u64 {
        self.0[index]
    }

    #[inline]
    fn limb_mut(&mut self, index: usize) -> &mut u64 {
        &mut self.0[index]
    }
}

/// Broadcasts a scalar bit over every lane of a word.
#[inline]
pub(crate) fn broadcast<W: LaneWord>(bit: sram_fault_model::Bit) -> W {
    match bit {
        sram_fault_model::Bit::Zero => W::ZERO,
        sram_fault_model::Bit::One => W::ALL,
    }
}

/// The lanes of `values` matching a sensitizing condition: `Zero` selects the
/// lanes holding 0, `One` the lanes holding 1, `DontCare` every lane.
#[inline]
pub(crate) fn condition_mask<W: LaneWord>(condition: sram_fault_model::CellValue, values: W) -> W {
    match condition {
        sram_fault_model::CellValue::Zero => !values,
        sram_fault_model::CellValue::One => values,
        sram_fault_model::CellValue::DontCare => W::ALL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_mask_boundary<W: LaneWord>() {
        // The n == width boundary — the case the old code special-cased
        // twice — must produce the all-ones word, and n == width - 1 must
        // clear exactly the top lane.
        assert_eq!(W::full_mask(W::BITS), W::ALL);
        let almost = W::full_mask(W::BITS - 1);
        assert!(!almost.test_bit(W::BITS - 1));
        assert_eq!(almost.count_ones() as usize, W::BITS - 1);
        assert_eq!(almost | W::bit(W::BITS - 1), W::ALL);
        // And the low boundary.
        assert_eq!(W::full_mask(1), W::bit(0));
    }

    #[test]
    fn full_mask_covers_the_width_boundary_on_every_word() {
        full_mask_boundary::<u64>();
        full_mask_boundary::<W256>();
    }

    fn bit_scan_roundtrip<W: LaneWord>() {
        for lane in [0usize, 1, 63, W::BITS / 2, W::BITS - 1] {
            let word = W::bit(lane);
            assert!(word.test_bit(lane));
            assert_eq!(word.count_ones(), 1);
            assert_eq!(word.trailing_zeros() as usize, lane);
            let mut cleared = word;
            cleared.clear_lowest_bit();
            assert!(cleared.is_zero());
        }
        assert_eq!(W::ZERO.trailing_zeros() as usize, W::BITS);
        assert!(W::ZERO.is_zero());
        assert!(!W::ALL.is_zero());
        assert_eq!(W::ALL.count_ones() as usize, W::BITS);
    }

    #[test]
    fn bit_operations_roundtrip_on_every_word() {
        bit_scan_roundtrip::<u64>();
        bit_scan_roundtrip::<W256>();
    }

    #[test]
    fn wide_shifts_move_lanes_across_limbs() {
        // Lanes at every limb edge, shifted within a limb, by a whole limb,
        // across several and out of the word, land where moving them lane
        // by lane puts them.
        let lanes = [0usize, 1, 62, 63, 64, 65, 127, 128, 191, 192, 254, 255];
        let word = lanes
            .iter()
            .fold(W256::ZERO, |word, &lane| word | W256::bit(lane));
        for by in [0, 1, 5, 63, 64, 65, 127, 128, 200, 255, 256, 300] {
            let (mut up, mut down) = (W256::ZERO, W256::ZERO);
            for lane in lanes {
                if lane + by < W256::BITS {
                    up |= W256::bit(lane + by);
                }
                if lane >= by {
                    down |= W256::bit(lane - by);
                }
            }
            assert_eq!(word << by, up, "<< {by}");
            assert_eq!(word >> by, down, ">> {by}");
        }
    }

    #[test]
    fn wide_words_mirror_u64_limbwise() {
        // A W256 built from two u64 patterns in its lowest and highest limbs
        // behaves like the pair.
        let low = 0x0123_4567_89ab_cdefu64;
        let high = 0xfedc_ba98_7654_3210u64;
        let word = W256::full_mask(64) & W256::ALL;
        assert_eq!(word.count_ones(), 64);
        let mut composed = W256::ZERO;
        for lane in 0..64 {
            if low.test_bit(lane) {
                composed |= W256::bit(lane);
            }
            if high.test_bit(lane) {
                composed |= W256::bit(192 + lane);
            }
        }
        assert_eq!(composed.limb(0), low);
        assert_eq!(composed.limb(3), high);
        assert_eq!(composed.count_ones(), low.count_ones() + high.count_ones());
        assert_eq!(composed.trailing_zeros(), low.trailing_zeros());
        assert_eq!((!composed & composed), W256::ZERO);
        assert_eq!((composed ^ composed), W256::ZERO);
        assert_eq!((composed | !composed), W256::ALL);
    }
}
