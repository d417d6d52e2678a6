//! The store's one checksum, over block-file pages, block-file headers,
//! the WAL header and WAL records.
//!
//! [`sum64`] reads its bytes as little-endian 8-byte words, zero-pads a
//! short last word and folds the byte length in last, each with one
//! multiply and one rotation:
//!
//! ```text
//! h ← basis;  h ← rotl((h ⊕ w) · K, 31)  for each word w, then for w = len
//! ```
//!
//! For a fixed word the step is a bijection of `h`, and for a fixed `h`
//! it is injective in the word, so corruption confined to one word —
//! every single-bit flip — always changes the sum, and the same bytes
//! under another basis always sum differently (position keys). The
//! rotation carries a difference in the high bits back to the low ones:
//! without it, flips of bit 63 in two words always cancel. DESIGN.md
//! § *The checksum* has the argument in full.
//!
//! One page is one dependent multiply chain, bound by the multiplier's
//! *latency*; [`sum64_each`] advances [`LANES`] independent byte strings
//! in lock-step, which keeps the multiplier busy and computes the
//! **same values** as [`sum64`]: a file written through either function
//! verifies through the other.

/// The basis of the block-file and WAL headers; page and record bases
/// are keyed off it.
pub const BASIS: u64 = 0x243f_6a88_85a3_08d3;

/// The odd multiplier of every step.
const K: u64 = 0x9e37_79b1_85eb_ca87;

/// The rotation of every step.
const R: u32 = 31;

/// Byte strings [`sum64_each`] advances together. One chain has a
/// latency of a few cycles per word and the multiplier accepts one
/// multiply a cycle, so four chains keep it busy; more lanes only add
/// register pressure.
pub const LANES: usize = 4;

/// One step: word `w` into state `h`.
#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(K).rotate_left(R)
}

/// Steps `h` over the words of `bytes`, the last one zero-padded.
#[inline]
fn absorb(mut h: u64, bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        h = step(h, u64::from_le_bytes(*w));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    h
}

/// The checksum of `bytes` from a caller-chosen basis, so checksums can
/// be position-keyed: a page copied verbatim to another slot fails
/// verification, and the live table's WAL keys record checksums by
/// sequence number under the same discipline.
pub fn sum64(basis: u64, bytes: &[u8]) -> u64 {
    step(absorb(basis, bytes), bytes.len() as u64)
}

/// `N` checksums in lock-step over the words all lanes have, each
/// finished alone over whatever it has beyond that (a table's short
/// last page sharing a group with full ones).
#[inline]
fn lanes<const N: usize>(basis: [u64; N], pages: [&[u8]; N]) -> [u64; N] {
    let common = pages.iter().map(|p| p.len()).min().unwrap_or(0) / 8;
    let heads = pages.map(|p| &p.as_chunks::<8>().0[..common]);
    let mut h = basis;
    // Word `i` of every lane before word `i + 1` of any: the lock-step
    // order is the point, so the index stays.
    #[allow(clippy::needless_range_loop)]
    for i in 0..common {
        for l in 0..N {
            h[l] = step(h[l], u64::from_le_bytes(heads[l][i]));
        }
    }
    for l in 0..N {
        h[l] = step(absorb(h[l], &pages[l][common * 8..]), pages[l].len() as u64);
    }
    h
}

/// Checksums byte strings `i..i + N` of `page` as one lane group.
#[inline]
fn group<'a, const N: usize>(
    i: usize,
    page: &impl Fn(usize) -> (u64, &'a [u8]),
    sink: &mut impl FnMut(usize, u64),
) {
    let p: [(u64, &[u8]); N] = std::array::from_fn(|l| page(i + l));
    let sums = lanes(p.map(|(basis, _)| basis), p.map(|(_, bytes)| bytes));
    for (l, h) in sums.into_iter().enumerate() {
        sink(i + l, h);
    }
}

/// Computes `sum64(basis, bytes)` for each of `n` byte strings,
/// [`LANES`] at a time: `page(i)` names the `i`-th string and its basis,
/// `sink(i, checksum)` receives every result exactly once, in order.
/// Equal to `n` calls of [`sum64`] for every `n` and any mix of
/// lengths; fastest when the strings of a group are equally long, as the
/// pages of a block file are.
pub fn sum64_each<'a>(
    n: usize,
    page: impl Fn(usize) -> (u64, &'a [u8]),
    mut sink: impl FnMut(usize, u64),
) {
    let mut i = 0;
    while i + LANES <= n {
        group::<LANES>(i, &page, &mut sink);
        i += LANES;
    }
    match n - i {
        3 => group::<3>(i, &page, &mut sink),
        2 => group::<2>(i, &page, &mut sink),
        1 => group::<1>(i, &page, &mut sink),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_pinned_golden_values() {
        // Pinned at `FMCOL002`/`FMWAL002`: a change here is a format
        // change. An empty string, a lone padded word, two full words
        // and a 1-byte tail, and one all-zero page.
        assert_eq!(sum64(BASIS, b""), 0x6b50_92a2_ba3d_8e49);
        assert_eq!(sum64(BASIS, b"a"), 0x3d2b_f177_ca0f_a90f);
        assert_eq!(sum64(BASIS, b"foobar"), 0x50cd_9a4f_7010_c8f6);
        assert_eq!(sum64(BASIS, b"0123456789abcdef!"), 0x838f_1128_2563_0bb9);
        assert_eq!(sum64(0, &[0u8; 600]), 0xf051_5634_6902_9c08);
    }

    #[test]
    fn each_visits_every_index_once_in_order() {
        let data: Vec<Vec<u8>> = (0..11u8).map(|i| vec![i; i as usize * 3]).collect();
        for n in 0..=data.len() {
            let mut seen = Vec::new();
            sum64_each(
                n,
                |i| (i as u64, data[i].as_slice()),
                |i, h| {
                    assert_eq!(h, sum64(i as u64, &data[i]));
                    seen.push(i);
                },
            );
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }
}
