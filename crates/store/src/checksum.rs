//! FNV-1a (64-bit), the checksum of block-file pages, block-file headers
//! and WAL records.
//!
//! [`fnv1a64`] is the single-stream reference. FNV-1a is one dependent
//! `xor`/`multiply` chain per byte string, so a lone page is bound by
//! the multiplier's *latency* (≈ 4 cycles a byte); [`fnv1a64_each`]
//! advances [`LANES`] independent byte strings in lock-step, which keeps
//! the multiplier busy every cycle and computes the **same values** about
//! four times faster per page. Nothing about the stored format changes:
//! a file written through either function verifies through the other.

/// The standard FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte strings [`fnv1a64_each`] advances together. One multiply chain
/// has a latency of about four cycles per byte and the multiplier
/// accepts one a cycle, so four chains saturate it; more lanes only add
/// register pressure (measured: 719 / 383 / 200 / 215 ns per 600-byte
/// page at 1 / 2 / 4 / 8 lanes).
pub const LANES: usize = 4;

/// FNV-1a (64-bit) over `bytes`, starting from a caller-chosen basis so
/// checksums can be position-keyed: a page copied verbatim to another
/// slot still fails verification, and the live table's WAL keys record
/// checksums by sequence number under the same discipline.
pub fn fnv1a64(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// `N` FNV-1a streams in lock-step over their common length, each
/// finished alone over whatever it has beyond that (a table's short
/// last page sharing a group with full ones).
#[inline]
fn lanes<const N: usize>(basis: [u64; N], pages: [&[u8]; N]) -> [u64; N] {
    let common = pages.iter().map(|p| p.len()).min().unwrap_or(0);
    let heads = pages.map(|p| &p[..common]);
    let mut h = basis;
    // Byte `i` of every lane before byte `i + 1` of any: the lock-step
    // order is the point, so the index stays.
    #[allow(clippy::needless_range_loop)]
    for i in 0..common {
        for l in 0..N {
            h[l] = (h[l] ^ heads[l][i] as u64).wrapping_mul(FNV_PRIME);
        }
    }
    for l in 0..N {
        h[l] = fnv1a64(h[l], &pages[l][common..]);
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

/// Computes `fnv1a64(basis, bytes)` for each of `n` byte strings,
/// [`LANES`] at a time: `page(i)` names the `i`-th string and its basis,
/// `sink(i, checksum)` receives every result exactly once, in order.
/// Equal to `n` calls of [`fnv1a64`] for every `n` and any mix of
/// lengths; fastest when the strings of a group are equally long, as the
/// pages of a block file are.
pub fn fnv1a64_each<'a>(
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
    fn reference_matches_published_vectors() {
        // FNV-1a 64 test vectors (Fowler/Noll/Vo reference suite).
        assert_eq!(fnv1a64(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(FNV_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn each_visits_every_index_once_in_order() {
        let data: Vec<Vec<u8>> = (0..11u8).map(|i| vec![i; i as usize]).collect();
        for n in 0..=data.len() {
            let mut seen = Vec::new();
            fnv1a64_each(
                n,
                |i| (i as u64, data[i].as_slice()),
                |i, h| {
                    assert_eq!(h, fnv1a64(i as u64, &data[i]));
                    seen.push(i);
                },
            );
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }
}
