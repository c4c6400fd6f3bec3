//! Finite permutations and the FFT-relevant families.

use std::fmt;

/// A permutation of `{0, 1, …, n−1}`.
///
/// `map[i]` is the *destination* of element `i`: applying the permutation
/// to a slice `x` produces `y` with `y[map[i]] = x[i]`.
///
/// The FFT-relevant families are provided as constructors:
/// [`stride`](Permutation::stride) (the `L^n_s` stride permutation used
/// between butterfly stages), [`bit_reversal`](Permutation::bit_reversal)
/// and [`transpose`](Permutation::transpose) (row-major ↔ column-major
/// reordering of a 2D block, the core of the dynamic data layout).
///
/// # Example
///
/// ```
/// use permute::Permutation;
///
/// let l = Permutation::stride(8, 2).unwrap();
/// let y = l.apply(&[0, 1, 2, 3, 4, 5, 6, 7]);
/// assert_eq!(y, vec![0, 2, 4, 6, 1, 3, 5, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    map: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `n` points.
    pub fn identity(n: usize) -> Self {
        Permutation {
            map: (0..n).collect(),
        }
    }

    /// Builds a permutation from an explicit destination map.
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError::NotBijective`] if `map` is not a
    /// bijection on `{0, …, map.len()−1}`.
    pub fn from_map(map: Vec<usize>) -> Result<Self, PermutationError> {
        let n = map.len();
        let mut seen = vec![false; n];
        for &d in &map {
            if d >= n || seen[d] {
                return Err(PermutationError::NotBijective { len: n, value: d });
            }
            seen[d] = true;
        }
        Ok(Permutation { map })
    }

    /// The stride permutation `L^n_s`: reading a vector with stride `s`
    /// (gathering `x[0], x[s], x[2s], …`) equals applying `L^n_s`.
    ///
    /// Element `i` moves to `(i mod s)·(n/s) + ⌊i/s⌋`.
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError::BadStride`] unless `s` divides `n` and
    /// both are non-zero.
    pub fn stride(n: usize, s: usize) -> Result<Self, PermutationError> {
        if n == 0 || s == 0 || !n.is_multiple_of(s) {
            return Err(PermutationError::BadStride { n, s });
        }
        let q = n / s;
        let map = (0..n).map(|i| (i % s) * q + i / s).collect();
        Ok(Permutation { map })
    }

    /// The bit-reversal permutation on `n = 2^k` points.
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError::NotPowerOfTwo`] if `n` is not a power
    /// of two.
    pub fn bit_reversal(n: usize) -> Result<Self, PermutationError> {
        if n == 0 || !n.is_power_of_two() {
            return Err(PermutationError::NotPowerOfTwo { n });
        }
        let bits = n.trailing_zeros();
        if bits == 0 {
            return Ok(Permutation::identity(n));
        }
        let map = (0..n)
            .map(|i| (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1))
            .collect();
        Ok(Permutation { map })
    }

    /// The transposition of an `rows × cols` row-major block: element at
    /// `(r, c)` moves to the position of `(c, r)` in the `cols × rows`
    /// row-major result. Equivalent to `L^(rows·cols)_cols`.
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError::BadStride`] if either dimension is 0.
    pub fn transpose(rows: usize, cols: usize) -> Result<Self, PermutationError> {
        Self::stride(
            rows.checked_mul(cols)
                .ok_or(PermutationError::BadStride { n: 0, s: 0 })?,
            cols,
        )
    }

    /// Number of points the permutation acts on.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Destination of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn dest(&self, i: usize) -> usize {
        self.map[i]
    }

    /// `true` if this is the identity.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &d)| i == d)
    }

    /// Composition `other ∘ self`: first apply `self`, then `other`.
    ///
    /// # Panics
    ///
    /// Panics if the two permutations act on different sizes.
    pub fn then(&self, other: &Permutation) -> Permutation {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot compose permutations of different sizes"
        );
        let map = self.map.iter().map(|&d| other.map[d]).collect();
        Permutation { map }
    }

    /// Applies the permutation to a slice, producing a new vector with
    /// `out[map[i]] = x[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn apply<T: Clone>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.len(), "slice length mismatch");
        let mut out = x.to_vec();
        for (i, &d) in self.map.iter().enumerate() {
            out[d] = x[i].clone();
        }
        out
    }

    /// Applies the permutation in place using cycle chasing (no
    /// allocation beyond a visited bitmap).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn apply_in_place<T>(&self, x: &mut [T]) {
        assert_eq!(x.len(), self.len(), "slice length mismatch");
        let mut visited = vec![false; self.len()];
        for start in 0..self.len() {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            // Repeatedly swap the cycle's head into place: after swapping
            // with destination j, position `start` holds the element whose
            // destination is map[j], and so on around the cycle.
            let mut j = self.map[start];
            while j != start {
                visited[j] = true;
                x.swap(start, j);
                j = self.map[j];
            }
        }
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "perm[{}](", self.len())?;
        for (i, d) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

/// Errors from permutation constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PermutationError {
    /// The provided map repeats or skips a destination.
    NotBijective {
        /// Size of the map.
        len: usize,
        /// The offending destination value.
        value: usize,
    },
    /// `s` does not divide `n` (or one of them is zero).
    BadStride {
        /// Number of points.
        n: usize,
        /// Requested stride.
        s: usize,
    },
    /// `n` must be a power of two.
    NotPowerOfTwo {
        /// The offending size.
        n: usize,
    },
}

impl fmt::Display for PermutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PermutationError::NotBijective { len, value } => {
                write!(f, "map of length {len} is not a bijection (value {value})")
            }
            PermutationError::BadStride { n, s } => {
                write!(f, "stride {s} does not evenly divide {n} points")
            }
            PermutationError::NotPowerOfTwo { n } => {
                write!(f, "{n} points is not a power of two")
            }
        }
    }
}

impl std::error::Error for PermutationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_util::{prop_assert, prop_assert_eq, prop_check, SimRng};

    #[test]
    fn identity_properties() {
        let id = Permutation::identity(8);
        assert!(id.is_identity());
        assert_eq!(
            id.apply(&[1, 2, 3, 4, 5, 6, 7, 8]),
            vec![1, 2, 3, 4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn stride_permutation_matches_definition() {
        // L^8_2 interleaves evens then odds at the destination side:
        // y[(i%2)*4 + i/2] = x[i].
        let l = Permutation::stride(8, 2).unwrap();
        assert_eq!(
            l.apply(&[0, 1, 2, 3, 4, 5, 6, 7]),
            vec![0, 2, 4, 6, 1, 3, 5, 7]
        );
        // L^n_s composed with L^n_{n/s} is the identity.
        let l4 = Permutation::stride(8, 4).unwrap();
        assert!(l.then(&l4).is_identity());
    }

    #[test]
    fn stride_rejects_non_divisor() {
        assert_eq!(
            Permutation::stride(8, 3).unwrap_err(),
            PermutationError::BadStride { n: 8, s: 3 }
        );
        assert!(Permutation::stride(0, 1).is_err());
        assert!(Permutation::stride(8, 0).is_err());
    }

    #[test]
    fn bit_reversal_is_an_involution() {
        let r = Permutation::bit_reversal(16).unwrap();
        assert!(r.then(&r).is_identity());
        assert_eq!(r.dest(1), 8);
        assert_eq!(r.dest(3), 12);
        assert!(Permutation::bit_reversal(12).is_err());
        assert!(Permutation::bit_reversal(0).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let t = Permutation::transpose(2, 4).unwrap();
        let back = Permutation::transpose(4, 2).unwrap();
        assert!(t.then(&back).is_identity());
        // Transposing a 2x4 row-major block.
        let x = [0, 1, 2, 3, 10, 11, 12, 13];
        assert_eq!(t.apply(&x), vec![0, 10, 1, 11, 2, 12, 3, 13]);
    }

    #[test]
    fn from_map_validates() {
        assert!(Permutation::from_map(vec![1, 0, 2]).is_ok());
        assert!(Permutation::from_map(vec![1, 1, 2]).is_err());
        assert!(Permutation::from_map(vec![3, 0, 1]).is_err());
    }

    #[test]
    fn display_lists_destinations() {
        let p = Permutation::from_map(vec![2, 0, 1]).unwrap();
        assert_eq!(p.to_string(), "perm[3](2 0 1)");
    }

    #[test]
    #[should_panic(expected = "different sizes")]
    fn then_panics_on_size_mismatch() {
        let _ = Permutation::identity(4).then(&Permutation::identity(8));
    }

    fn arb_perm(rng: &mut SimRng, max: usize) -> Permutation {
        let n = rng.gen_range(1usize..=max);
        Permutation::from_map(rng.permutation_map(n)).expect("shuffled identity is a bijection")
    }

    #[test]
    fn apply_in_place_matches_apply() {
        prop_check!(|rng| {
            let p = arb_perm(rng, 64);
            let x: Vec<usize> = (100..100 + p.len()).collect();
            let expected = p.apply(&x);
            let mut y = x.clone();
            p.apply_in_place(&mut y);
            prop_assert_eq!(y, expected, "p = {}", p);
        });
    }

    #[test]
    fn apply_preserves_multiset() {
        prop_check!(|rng| {
            let p = arb_perm(rng, 64);
            let x: Vec<usize> = (0..p.len()).collect();
            let mut y = p.apply(&x);
            y.sort_unstable();
            prop_assert_eq!(y, x, "p = {}", p);
        });
    }

    #[test]
    fn composition_is_associative() {
        prop_check!(|rng| {
            let n = rng.gen_range(1usize..32);
            let mk = |rng: &mut SimRng| Permutation::from_map(rng.permutation_map(n)).unwrap();
            let (a, b, c) = (mk(rng), mk(rng), mk(rng));
            prop_assert_eq!(a.then(&b).then(&c), a.then(&b.then(&c)));
        });
    }

    #[test]
    fn stride_inverse_is_co_stride() {
        prop_check!(|rng| {
            let k = rng.gen_range(1usize..7);
            let j = rng.gen_range(0usize..7);
            let n = 1usize << k;
            let s = 1usize << (j % (k + 1));
            let l = Permutation::stride(n, s).unwrap();
            let co = Permutation::stride(n, n / s).unwrap();
            prop_assert!(l.then(&co).is_identity(), "n = {}, s = {}", n, s);
        });
    }
}
