//! Packed **code-word rows**: two dense codes in one `u64` ([`pack2`]),
//! or any `k` codes of `b` bits each with `k · b ≤ 64`
//! ([`RowPacking`]), plus the LSB radix sorts the packed kernels run on.
//!
//! [`crate::dict::DomainDict`] interns the active domain into dense
//! `u32` codes, so a row (or join key) spanning at most two coded
//! columns fits in a single machine word, `hi << 32 | lo`, and a wider
//! row over a small domain still fits at its tight bit width. The packing
//! is injective and **monotone**: the numeric order of packed words is
//! exactly the lexicographic order of `[hi, lo]` rows, which is what
//! lets a radix sort over words replace the comparison sort on the
//! canonical row order without changing a single output byte.
//!
//! **Packing invariant.** Callers may only pack columns whose relation
//! carries a dense-domain bound (`domain_width > 0` for *every* packed
//! column). The packing itself is total over `u32` pairs, but the
//! bound is what keeps the word population confined to the low bits —
//! the sorts below skip every radix pass whose digit is constant
//! across all keys, and the partition directories built over sorted
//! keys stay cache-sized, only because dense codes never stray above
//! their width.
//!
//! The sorts are **LSB (least-significant-digit) radix sorts** over
//! 8-bit digits: each executed pass is a stable counting sort, so the
//! final order is the full numeric key order, and — for the pair
//! variant — ties preserve feed order, which the join kernels use to
//! reproduce the probe order of the chained-hash index exactly.

use crate::structure::Element;

/// Packs two dense codes into one word, high column first. Monotone:
/// `pack2(a, b) <= pack2(c, d)` iff `[a, b] <= [c, d]`
/// lexicographically.
#[inline]
pub const fn pack2(hi: Element, lo: Element) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

/// Inverse of [`pack2`].
#[inline]
pub const fn unpack2(w: u64) -> (Element, Element) {
    ((w >> 32) as Element, w as Element)
}

/// Bits per column covering every dense code `< width`: the tight
/// per-column shift of packed words (`0` for a width of 0 or 1, where
/// the only code is `0`).
#[inline]
pub const fn code_bits(width: u32) -> u32 {
    match width {
        0 | 1 => 0,
        w => 32 - (w - 1).leading_zeros(),
    }
}

/// The layout of a `k`-column row of `b`-bit codes in one `u64` word:
/// column 0 in the highest bits, each later column `b` bits lower.
/// Like [`pack2`] the packing is injective and **monotone** — numeric
/// word order is lexicographic row order — for any codes `< 2^b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowPacking {
    cols: usize,
    bits: u32,
}

impl RowPacking {
    /// The layout of `cols` columns at `bits` bits each, or `None` when
    /// the row does not fit one word (`cols · bits > 64`) or a column
    /// is wider than a code (`bits > 32`). Zero columns (the 0-ary row)
    /// and zero bits (a one-code domain) pack every row into `0`.
    pub const fn new(cols: usize, bits: u32) -> Option<RowPacking> {
        if bits > 32 || cols.saturating_mul(bits as usize) > 64 {
            return None;
        }
        Some(RowPacking { cols, bits })
    }

    /// Packs one row given as its `cols` codes in column order; every
    /// code must be `< 2^bits`.
    #[inline]
    pub fn pack(&self, row: impl IntoIterator<Item = Element>) -> u64 {
        row.into_iter().fold(0, |w, c| (w << self.bits) | c as u64)
    }

    /// Inverse of [`RowPacking::pack`]: the row's codes in column
    /// order.
    #[inline]
    pub fn unpack(&self, w: u64) -> impl ExactSizeIterator<Item = Element> {
        let (bits, last) = (self.bits as usize, self.cols.saturating_sub(1));
        let mask = (1u64 << self.bits) - 1;
        (0..self.cols).map(move |i| ((w >> ((last - i) * bits)) & mask) as Element)
    }
}

/// The OR of all keys: a zero digit here means the digit is zero in
/// every key, so its counting pass would be the identity permutation
/// (everything lands in bucket 0 in feed order) and can be skipped.
#[inline]
fn or_mask(keys: &[u64]) -> u64 {
    keys.iter().fold(0, |m, &k| m | k)
}

/// Sorts packed key words ascending: LSB radix over 8-bit digits,
/// skipping constant-digit passes. Dense codes populate only the low
/// bytes of each half-word, so a sort over `pack2`-packed rows of
/// width `w` runs `2 * ceil(log2(w) / 8)` passes — at most four for
/// any domain under 64 K codes.
pub fn radix_sort(keys: &mut [u64]) {
    if keys.len() < 2 {
        return;
    }
    let or = or_mask(keys);
    let mut scratch = vec![0u64; keys.len()];
    let mut in_keys = true;
    for pass in 0..8u32 {
        let shift = pass * 8;
        if (or >> shift) & 0xff == 0 {
            continue;
        }
        let (src, dst): (&[u64], &mut [u64]) = if in_keys {
            (keys, &mut scratch)
        } else {
            (&scratch, keys)
        };
        let mut starts = digit_starts(src, shift, |&k| k);
        for &k in src {
            let d = ((k >> shift) & 0xff) as usize;
            dst[starts[d]] = k;
            starts[d] += 1;
        }
        in_keys = !in_keys;
    }
    if !in_keys {
        keys.copy_from_slice(&scratch);
    }
}

/// [`radix_sort`] for `u32` keys: half the memory traffic per pass
/// and at most four passes. Tightly packed two-column words (`hi <<
/// b | lo` for a `b`-bit domain with `2b ≤ 32`) and single dense
/// columns sort here instead of widening to `u64`.
pub fn radix_sort_u32(keys: &mut [u32]) {
    if keys.len() < 2 {
        return;
    }
    let or = keys.iter().fold(0u32, |m, &k| m | k);
    let mut scratch = vec![0u32; keys.len()];
    let mut in_keys = true;
    for pass in 0..4u32 {
        let shift = pass * 8;
        if (or >> shift) & 0xff == 0 {
            continue;
        }
        let (src, dst): (&[u32], &mut [u32]) = if in_keys {
            (keys, &mut scratch)
        } else {
            (&scratch, keys)
        };
        let mut starts = digit_starts(src, shift, |&k| k as u64);
        for &k in src {
            let d = ((k >> shift) & 0xff) as usize;
            dst[starts[d]] = k;
            starts[d] += 1;
        }
        in_keys = !in_keys;
    }
    if !in_keys {
        keys.copy_from_slice(&scratch);
    }
}

/// Sorts-and-dedups packed key words in place, skipping the radix
/// sort entirely when the keys already arrive in order — materialized
/// scans usually do — so the packed path matches the adaptive
/// comparison sort's sorted-input best case instead of paying full
/// counting passes for order it already has. The sortedness check is
/// one sequential pass, a fraction of a single radix pass.
pub fn radix_dedup(keys: &mut Vec<u64>) {
    if !keys.is_sorted() {
        radix_sort(keys);
    }
    keys.dedup();
}

/// [`radix_dedup`] for `u32` keys.
pub fn radix_dedup_u32(keys: &mut Vec<u32>) {
    if !keys.is_sorted() {
        radix_sort_u32(keys);
    }
    keys.dedup();
}

/// Sorts `(key, tag)` pairs ascending by key, **stably**: pairs with
/// equal keys keep their feed order across every pass. The join
/// kernels feed row ids in descending order, so each key group comes
/// out listing rows descending — the exact candidate order of the
/// chained-hash and direct-addressed indexes, which is what keeps join
/// output buffers byte-identical across index representations.
pub fn radix_sort_pairs(pairs: &mut [(u64, u32)]) {
    /// A `(packed key, tag)` pair, as fed by the join kernels.
    type Pair = (u64, u32);
    if pairs.len() < 2 {
        return;
    }
    let or = pairs.iter().fold(0, |m, &(k, _)| m | k);
    let mut scratch = vec![(0u64, 0u32); pairs.len()];
    let mut in_pairs = true;
    for pass in 0..8u32 {
        let shift = pass * 8;
        if (or >> shift) & 0xff == 0 {
            continue;
        }
        let (src, dst): (&[Pair], &mut [Pair]) = if in_pairs {
            (pairs, &mut scratch)
        } else {
            (&scratch, pairs)
        };
        let mut starts = digit_starts(src, shift, |&(k, _)| k);
        for &p in src {
            let d = ((p.0 >> shift) & 0xff) as usize;
            dst[starts[d]] = p;
            starts[d] += 1;
        }
        in_pairs = !in_pairs;
    }
    if !in_pairs {
        pairs.copy_from_slice(&scratch);
    }
}

/// One counting pass: the exclusive prefix sums of the 256 digit
/// counts at `shift`, i.e. each digit's first output slot.
#[inline]
fn digit_starts<T>(src: &[T], shift: u32, key: impl Fn(&T) -> u64) -> [usize; 256] {
    let mut counts = [0usize; 256];
    for t in src {
        counts[((key(t) >> shift) & 0xff) as usize] += 1;
    }
    let mut sum = 0usize;
    for c in counts.iter_mut() {
        let n = *c;
        *c = sum;
        sum += n;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (xorshift).
    fn stream(seed: u64) -> impl Iterator<Item = u64> {
        let mut s = seed.max(1);
        std::iter::repeat_with(move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        })
    }

    #[test]
    fn pack_is_monotone_and_invertible() {
        let vals = [0u32, 1, 2, 255, 256, 65_535, u32::MAX];
        let mut rows: Vec<[u32; 2]> = Vec::new();
        for &a in &vals {
            for &b in &vals {
                rows.push([a, b]);
                assert_eq!(unpack2(pack2(a, b)), (a, b));
            }
        }
        let mut by_row = rows.clone();
        by_row.sort_unstable();
        let mut by_word = rows;
        by_word.sort_unstable_by_key(|r| pack2(r[0], r[1]));
        assert_eq!(by_row, by_word, "word order must equal row order");
    }

    #[test]
    fn code_bits_covers_width() {
        assert_eq!(code_bits(0), 0);
        assert_eq!(code_bits(1), 0);
        assert_eq!(code_bits(2), 1);
        assert_eq!(code_bits(3), 2);
        assert_eq!(code_bits(256), 8);
        assert_eq!(code_bits(257), 9);
        assert_eq!(code_bits(u32::MAX), 32);
        for w in 2..2000u32 {
            let b = code_bits(w);
            assert!((w - 1) >> b == 0, "code {} must fit {b} bits", w - 1);
            assert!(
                b == 0 || (w - 1) >> (b - 1) != 0,
                "{b} bits is tight for {w}"
            );
        }
    }

    #[test]
    fn row_packing_round_trips() {
        for (cols, bits) in [(1, 32), (2, 32), (3, 21), (4, 16), (5, 12), (8, 8), (64, 1)] {
            let p = RowPacking::new(cols, bits).expect("fits one word");
            let mask = if bits == 32 {
                u32::MAX
            } else {
                (1 << bits) - 1
            };
            let mut vals = stream(cols as u64 * 31 + bits as u64);
            for _ in 0..200 {
                let row: Vec<Element> = (0..cols)
                    .map(|_| vals.next().unwrap() as Element & mask)
                    .collect();
                let w = p.pack(row.iter().copied());
                assert_eq!(p.unpack(w).collect::<Vec<_>>(), row, "k={cols} b={bits}");
            }
            // The extreme codes survive too.
            let top = vec![mask; cols];
            assert_eq!(
                p.unpack(p.pack(top.iter().copied())).collect::<Vec<_>>(),
                top
            );
        }
    }

    #[test]
    fn row_packing_is_monotone_for_every_fitting_width() {
        for bits in 1..=32u32 {
            let widest = 64 / bits as usize;
            assert_eq!(RowPacking::new(widest + 1, bits), None, "b={bits}");
            for cols in 1..=widest {
                let p = RowPacking::new(cols, bits).expect("k·b ≤ 64 fits one word");
                // Few distinct values per column, including the
                // largest code, so equal prefixes are common.
                let top = if bits == 32 {
                    u32::MAX
                } else {
                    (1 << bits) - 1
                };
                let choices = [0, 1.min(top), top / 2, top];
                let mut vals = stream(cols as u64 * 97 + bits as u64);
                let rows: Vec<Vec<Element>> = (0..100)
                    .map(|_| {
                        (0..cols)
                            .map(|_| choices[(vals.next().unwrap() % 4) as usize])
                            .collect()
                    })
                    .collect();
                let mut by_row = rows.clone();
                by_row.sort();
                let mut by_word = rows;
                by_word.sort_by_key(|r| p.pack(r.iter().copied()));
                assert_eq!(
                    by_row, by_word,
                    "word order must be row order, k={cols} b={bits}"
                );
            }
        }
    }

    #[test]
    fn row_packing_declines_wider_than_a_word() {
        assert_eq!(RowPacking::new(3, 22), None);
        assert_eq!(RowPacking::new(5, 13), None);
        assert_eq!(RowPacking::new(65, 1), None);
        assert_eq!(
            RowPacking::new(1, 33),
            None,
            "no column is wider than a code"
        );
        assert_eq!(RowPacking::new(usize::MAX, 2), None);
        assert!(RowPacking::new(3, 21).is_some());
        assert!(RowPacking::new(64, 1).is_some());
    }

    #[test]
    fn row_packing_edge_cases() {
        // The 0-ary row packs to 0 and unpacks to nothing, at any width.
        for bits in [0, 1, 32] {
            let p = RowPacking::new(0, bits).unwrap();
            assert_eq!(p.pack(std::iter::empty()), 0);
            assert_eq!(p.unpack(0).len(), 0);
        }
        // A one-code domain (0 bits) packs every row of zeros into 0.
        let p = RowPacking::new(1000, 0).unwrap();
        assert_eq!(p.pack(vec![0; 1000]), 0);
        assert_eq!(p.unpack(0).collect::<Vec<_>>(), vec![0; 1000]);
        // One column is the code itself.
        let p = RowPacking::new(1, 32).unwrap();
        for c in [0, 7, u32::MAX] {
            assert_eq!(p.pack([c]), c as u64);
            assert_eq!(p.unpack(c as u64).collect::<Vec<_>>(), vec![c]);
        }
        // Two 32-bit columns are exactly `pack2`.
        let p = RowPacking::new(2, 32).unwrap();
        assert_eq!(p.pack([3, u32::MAX]), pack2(3, u32::MAX));
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        for (seed, n, width) in [
            (3u64, 0usize, 1u64),
            (5, 1, 7),
            (7, 1000, 50),
            (11, 4096, 1 << 20),
            (13, 777, u64::MAX),
        ] {
            let mut keys: Vec<u64> = stream(seed).take(n).map(|k| k % width.max(1)).collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            radix_sort(&mut keys);
            assert_eq!(keys, expected, "seed {seed} n {n} width {width}");
        }
    }

    #[test]
    fn radix_sort_u32_matches_comparison_sort() {
        for (seed, n, width) in [
            (3u64, 0usize, 1u32),
            (5, 1, 7),
            (7, 1000, 50),
            (11, 4096, 1 << 20),
            (13, 777, u32::MAX),
        ] {
            let mut keys: Vec<u32> = stream(seed)
                .take(n)
                .map(|k| (k as u32) % width.max(1))
                .collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            radix_sort_u32(&mut keys);
            assert_eq!(keys, expected, "seed {seed} n {n} width {width}");
        }
    }

    #[test]
    fn radix_dedup_matches_sort_dedup() {
        for sorted in [false, true] {
            let mut k64: Vec<u64> = stream(21).take(3000).map(|k| k % 400).collect();
            let mut k32: Vec<u32> = k64.iter().map(|&k| k as u32).collect();
            if sorted {
                k64.sort_unstable();
                k32.sort_unstable();
            }
            let mut e64 = k64.clone();
            e64.sort_unstable();
            e64.dedup();
            let mut e32 = k32.clone();
            e32.sort_unstable();
            e32.dedup();
            radix_dedup(&mut k64);
            radix_dedup_u32(&mut k32);
            assert_eq!(k64, e64, "sorted={sorted}");
            assert_eq!(k32, e32, "sorted={sorted}");
        }
    }

    #[test]
    fn radix_sort_pairs_is_stable() {
        // Many duplicate keys; tags record feed order, which must
        // survive within every equal-key group.
        let mut pairs: Vec<(u64, u32)> = stream(42)
            .take(2000)
            .enumerate()
            .map(|(i, k)| (k % 37, i as u32))
            .collect();
        let mut expected = pairs.clone();
        expected.sort_by_key(|&(k, _)| k); // std stable sort
        radix_sort_pairs(&mut pairs);
        assert_eq!(pairs, expected);
    }

    #[test]
    fn radix_sort_skips_constant_digits() {
        // All keys share their high bytes; the sort must still be
        // correct (the skipped passes are identity permutations).
        let base = 0xdead_beef_0000_0000u64;
        let mut keys: Vec<u64> = stream(9).take(512).map(|k| base | (k & 0xffff)).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        radix_sort(&mut keys);
        assert_eq!(keys, expected);
    }
}
