//! Every check kept: reading pages many at a time — one positioned read
//! per span, checksums computed in interleaved lanes — must reject
//! exactly what the page-at-a-time reader rejected, name the same page,
//! and never let a bad page into the cache. The writer is pinned byte
//! for byte against a serial reference written here, and the checksum
//! against an independent reference and its detection properties:
//! every single-bit flip, a zero byte appended or dropped, and two
//! flips of bit 63.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastmatch_store::backend::{PageOrigin, StorageBackend};
use fastmatch_store::block::BlockLayout;
use fastmatch_store::checksum::{sum64, sum64_each, BASIS, LANES};
use fastmatch_store::error::StoreError;
use fastmatch_store::file::{write_table, FileBackend, RUN_CHUNK_BLOCKS};
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::table::Table;
use fastmatch_store::tempfile::TempBlockFile;

/// The header basis, written out so a change to it is a format change
/// this file notices.
const HEADER_BASIS: u64 = 0x243f_6a88_85a3_08d3;

/// An independent `sum64`, so the reference does not share a line with
/// the code under test: words assembled byte by byte (the last one
/// short, so zero-padded), then the length as one more word.
fn reference_sum64(basis: u64, bytes: &[u8]) -> u64 {
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x9e37_79b1_85eb_ca87).rotate_left(31);
    let words = bytes.chunks(8).map(|c| {
        c.iter()
            .enumerate()
            .fold(0u64, |w, (k, &b)| w | u64::from(b) << (8 * k))
    });
    mix(words.fold(basis, mix), bytes.len() as u64)
}

fn table(rows: usize, seed: u64) -> Table {
    let schema = Schema::new(vec![AttrDef::new("z", 1000), AttrDef::new("x", 9)]);
    let mut rng = StdRng::seed_from_u64(seed);
    let z = (0..rows).map(|_| rng.gen_range(0..1000u32)).collect();
    let x = (0..rows).map(|_| rng.gen_range(0..9u32)).collect();
    Table::new(schema, vec![z, x])
}

/// The `FMCOL002` image of `t`, page by page with single-stream
/// reference checksums.
fn serial_reference_image(t: &Table, tpb: usize) -> Vec<u8> {
    let layout = BlockLayout::new(t.n_rows(), tpb);
    let mut out = Vec::new();
    out.extend_from_slice(b"FMCOL002");
    out.extend_from_slice(&(tpb as u32).to_le_bytes());
    out.extend_from_slice(&(t.n_rows() as u64).to_le_bytes());
    out.extend_from_slice(&(t.schema().len() as u32).to_le_bytes());
    for attr in t.schema().attrs() {
        out.extend_from_slice(&(attr.name.len() as u16).to_le_bytes());
        out.extend_from_slice(attr.name.as_bytes());
        out.extend_from_slice(&attr.cardinality.to_le_bytes());
    }
    let header_sum = reference_sum64(HEADER_BASIS, &out);
    out.extend_from_slice(&header_sum.to_le_bytes());
    for a in 0..t.schema().len() {
        for b in 0..layout.num_blocks() {
            let from = out.len();
            for &code in &t.column(a)[layout.rows_of_block(b)] {
                out.extend_from_slice(&code.to_le_bytes());
            }
            let basis = HEADER_BASIS ^ ((a as u64) << 32) ^ b as u64;
            let sum = reference_sum64(basis, &out[from..]);
            out.extend_from_slice(&sum.to_le_bytes());
        }
    }
    out
}

/// Offset of page (`attr`, `b`) in an image and its length in bytes.
fn page_span(t: &Table, tpb: usize, attr: usize, b: usize) -> (usize, usize) {
    let layout = BlockLayout::new(t.n_rows(), tpb);
    let header: usize = 8
        + 4
        + 8
        + 4
        + t.schema()
            .attrs()
            .iter()
            .map(|a| 2 + a.name.len() + 4)
            .sum::<usize>()
        + 8;
    let region = t.n_rows() * 4 + layout.num_blocks() * 8;
    (
        header + attr * region + b * (tpb * 4 + 8),
        layout.block_len(b) * 4 + 8,
    )
}

#[test]
fn lane_kernel_equals_reference_for_every_lane_count_and_ragged_lanes() {
    let mut rng = StdRng::seed_from_u64(0x1a9e5);
    for n in 0..=3 * LANES + 1 {
        for ragged in [false, true] {
            let pages: Vec<(u64, Vec<u8>)> = (0..n)
                .map(|i| {
                    // Equal lengths, or every lane its own (one empty).
                    let len = if ragged { (i * 37) % 90 } else { 64 };
                    let bytes = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
                    (rng.gen_range(0..u64::MAX), bytes)
                })
                .collect();
            let mut seen = vec![None; n];
            sum64_each(
                n,
                |i| (pages[i].0, pages[i].1.as_slice()),
                |i, sum| {
                    assert!(seen[i].replace(sum).is_none(), "page {i} reported twice");
                },
            );
            for (i, (basis, bytes)) in pages.iter().enumerate() {
                let want = reference_sum64(*basis, bytes);
                assert_eq!(sum64(*basis, bytes), want);
                assert_eq!(seen[i], Some(want), "n={n} ragged={ragged} page {i}");
            }
        }
    }
    assert_eq!(BASIS, HEADER_BASIS);
}

/// Random bytes of every length 0..=97: no word, a partial word, and
/// every tail length past one to twelve whole words.
fn strings_up_to_97() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(0x5e7);
    (0..=97)
        .map(|len| (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect())
        .collect()
}

#[test]
fn every_single_bit_flip_changes_the_sum_at_every_length() {
    for bytes in strings_up_to_97() {
        let sum = sum64(BASIS, &bytes);
        assert_eq!(sum, reference_sum64(BASIS, &bytes));
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(sum64(BASIS, &flipped), sum, "len {} bit {bit}", bytes.len());
        }
    }
}

#[test]
fn appending_or_dropping_a_zero_byte_changes_the_sum() {
    // The zero byte lands in the padding of the last word, or starts a
    // word of its own; only the folded-in length tells them apart.
    for bytes in strings_up_to_97() {
        let mut zero_ended = bytes.clone();
        zero_ended.push(0);
        let sums = [sum64(BASIS, &bytes), sum64(BASIS, &zero_ended)];
        assert_ne!(sums[0], sums[1], "len {}", bytes.len());
        // Dropping it is the same pair read the other way; dropping a
        // zero byte that ends `bytes` itself is checked too.
        let mut zeroed = bytes.clone();
        if let Some(last) = zeroed.last_mut() {
            *last = 0;
            let dropped = &zeroed[..zeroed.len() - 1];
            assert_ne!(
                sum64(BASIS, &zeroed),
                sum64(BASIS, dropped),
                "len {}",
                bytes.len()
            );
        }
    }
}

#[test]
fn flipping_bit_63_in_any_two_words_of_a_page_changes_the_sum() {
    // Without the rotation a difference in bit 63 stays in bit 63 and a
    // second flip there cancels it, whichever two words carry them.
    let mut rng = StdRng::seed_from_u64(0xb1763);
    let page: Vec<u8> = (0..600).map(|_| rng.gen_range(0..256u32) as u8).collect();
    let sum = sum64(BASIS, &page);
    let words = page.len() / 8;
    for i in 0..words {
        for j in i + 1..words {
            let mut flipped = page.clone();
            flipped[8 * i + 7] ^= 0x80;
            flipped[8 * j + 7] ^= 0x80;
            assert_ne!(sum64(BASIS, &flipped), sum, "words {i} and {j}");
        }
    }
}

#[test]
fn writer_output_is_byte_identical_to_the_serial_reference() {
    // Block counts below, at and past a chunk, with and without a short
    // last block, and an empty table.
    for (rows, tpb, seed) in [
        (0usize, 4usize, 1u64),
        (1, 1, 2),
        (103, 10, 3),
        (RUN_CHUNK_BLOCKS * 6, 6, 4),
        (RUN_CHUNK_BLOCKS * 6 + 1, 6, 5),
        (3 * RUN_CHUNK_BLOCKS * 5 - 2, 5, 6),
        (20_011, 150, 7),
    ] {
        let t = table(rows, seed);
        let scratch = TempBlockFile::new("verify_writer");
        let written = write_table(scratch.path(), &t, tpb).unwrap();
        let bytes = std::fs::read(scratch.path()).unwrap();
        assert_eq!(written as usize, bytes.len());
        assert!(
            bytes == serial_reference_image(&t, tpb),
            "rows={rows} tpb={tpb}: image differs from the serial writer's"
        );
    }
}

/// Writes `image` to a fresh file and opens it with a cache big enough
/// to hold a bad page if one were (wrongly) inserted.
fn open_image(image: &[u8]) -> (TempBlockFile, FileBackend) {
    let scratch = TempBlockFile::new("verify_image");
    std::fs::write(scratch.path(), image).unwrap();
    let be = FileBackend::open(scratch.path())
        .unwrap()
        .with_cache_blocks(512);
    (scratch, be)
}

/// Both demand paths over a file whose page (`attr`, `bad`) is damaged:
/// each must deliver the blocks before it intact, fail naming exactly
/// that page, and fail again on a second attempt.
fn assert_both_paths_reject(image: &[u8], t: &Table, tpb: usize, attr: usize, bad: usize) {
    let layout = BlockLayout::new(t.n_rows(), tpb);
    let nb = layout.num_blocks();
    let names_the_page = |e: &StoreError| matches!(e, StoreError::Corrupt { attr: a, block, .. } if *a == attr && *block == bad);
    let (_scratch, be) = open_image(image);
    let (mut zs, mut xs) = (Vec::new(), Vec::new());
    for attempt in 0..2 {
        // Pair path, block by block.
        for b in 0..nb {
            let got = be.read_block_pair_into(b, 0, 1, &mut zs, &mut xs);
            if b == bad {
                let e = got.unwrap_err();
                assert!(names_the_page(&e), "pair path, attempt {attempt}: {e}");
            } else {
                got.unwrap();
                assert_eq!(zs, &t.column(0)[layout.rows_of_block(b)]);
                assert_eq!(xs, &t.column(1)[layout.rows_of_block(b)]);
            }
        }
        // Run path, crossing the page.
        let mut delivered = 0usize;
        let e = be
            .read_run_pair_into(0..nb, 0, 1, &mut zs, &mut xs, &mut |b, z, x, _| {
                assert_eq!(b, delivered);
                assert_eq!(z, &t.column(0)[layout.rows_of_block(b)], "z of {b}");
                assert_eq!(x, &t.column(1)[layout.rows_of_block(b)], "x of {b}");
                delivered += 1;
                true
            })
            .unwrap_err();
        assert!(names_the_page(&e), "run path, attempt {attempt}: {e}");
        assert_eq!(delivered, bad, "every block before the bad page, no more");
    }
    // The bad page's healthy sibling may be cached; the bad page is not,
    // or a re-read would have served it as a hit instead of failing.
    let got = be.read_block_into(bad, attr, &mut zs).unwrap_err();
    assert!(names_the_page(&got), "{got}");
}

#[test]
fn every_single_bit_flip_of_a_page_is_reported_naming_that_page() {
    let (rows, tpb) = (9 * 6 - 2, 6usize); // 9 blocks, the last one short
    let t = table(rows, 11);
    let image = serial_reference_image(&t, tpb);
    // Every bit — codes and checksum — of one page per lane position of
    // the run's z lanes, and of the short last page of x.
    for (attr, bad) in [(0usize, 5usize), (1, 8)] {
        let (off, len) = page_span(&t, tpb, attr, bad);
        for bit in 0..len * 8 {
            let mut damaged = image.clone();
            damaged[off + bit / 8] ^= 1 << (bit % 8);
            assert_both_paths_reject(&damaged, &t, tpb, attr, bad);
        }
    }
    // One bit of *every* page: whichever lane a page is verified in, the
    // mismatch must be pinned on it and not on a lane neighbour.
    for attr in 0..2 {
        for bad in 0..9 {
            let (off, len) = page_span(&t, tpb, attr, bad);
            let mut damaged = image.clone();
            damaged[off + (bad * 7 + attr) % len] ^= 0x10;
            assert_both_paths_reject(&damaged, &t, tpb, attr, bad);
        }
    }
}

#[test]
fn a_page_copied_verbatim_to_another_slot_fails_its_position_key() {
    let (rows, tpb) = (8 * 6, 6usize);
    let t = table(rows, 12);
    let image = serial_reference_image(&t, tpb);
    // Within an attribute, and across attributes at the same block id.
    for ((from_attr, from_b), (to_attr, to_b)) in [((0, 1), (0, 2)), ((0, 3), (1, 3))] {
        let (from, len) = page_span(&t, tpb, from_attr, from_b);
        let (to, _) = page_span(&t, tpb, to_attr, to_b);
        let mut moved = image.clone();
        moved.copy_within(from..from + len, to);
        assert_both_paths_reject(&moved, &t, tpb, to_attr, to_b);
    }
}

#[test]
fn of_several_bad_pages_the_one_a_block_by_block_reader_meets_first_is_reported() {
    let (rows, tpb) = (12 * 6, 6usize);
    let t = table(rows, 15);
    let image = serial_reference_image(&t, tpb);
    // (damaged pages, the one to report): an earlier block wins whatever
    // its attribute; within a block the z page is read before the x page.
    for (damaged, (attr, bad)) in [
        (vec![(0usize, 7usize), (1, 4), (0, 9)], (1usize, 4usize)),
        (vec![(1, 6), (0, 6)], (0, 6)),
        (vec![(1, 10), (0, 11), (1, 11)], (1, 10)),
    ] {
        let mut image = image.clone();
        for (a, b) in damaged {
            let (off, _) = page_span(&t, tpb, a, b);
            image[off + 1] ^= 0x04;
        }
        let (_scratch, be) = open_image(&image);
        let (mut zs, mut xs) = (Vec::new(), Vec::new());
        let mut delivered = 0usize;
        let by_run = be
            .read_run_pair_into(0..12, 0, 1, &mut zs, &mut xs, &mut |_, _, _, _| {
                delivered += 1;
                true
            })
            .unwrap_err();
        let by_pair = be
            .read_block_pair_into(bad, 0, 1, &mut zs, &mut xs)
            .unwrap_err();
        for e in [by_run, by_pair] {
            assert!(
                matches!(e, StoreError::Corrupt { attr: a, block, .. } if a == attr && block == bad),
                "want attr {attr} block {bad}: {e}"
            );
        }
        assert_eq!(delivered, bad);
    }
}

/// A run over three chunks whose third chunk holds a corrupt page:
/// the first two chunks and the blocks of the third before the page are
/// delivered intact, the read fails naming the page, and the page is
/// never cached — a second pass serves every other page of the first
/// three chunks from the cache and fails on the same page again.
#[test]
fn a_run_delivers_every_block_before_a_corrupt_page_in_a_later_chunk() {
    let tpb = 4usize;
    let nb = 3 * RUN_CHUNK_BLOCKS;
    let t = table(nb * tpb, 14);
    let layout = BlockLayout::new(t.n_rows(), tpb);
    let bad = 2 * RUN_CHUNK_BLOCKS + 1;
    let mut image = serial_reference_image(&t, tpb);
    let (off, len) = page_span(&t, tpb, 0, bad);
    image[off + len - 1] ^= 0x80; // in the stored checksum
    let (_scratch, be) = open_image(&image);
    let (mut zs, mut xs) = (Vec::new(), Vec::new());
    for (pass, want) in [(0, PageOrigin::CacheMiss), (1, PageOrigin::CacheHit)] {
        let mut delivered = 0usize;
        let e = be
            .read_run_pair_into(0..nb, 0, 1, &mut zs, &mut xs, &mut |b, z, x, origins| {
                assert_eq!(b, delivered);
                assert_eq!(z, &t.column(0)[layout.rows_of_block(b)]);
                assert_eq!(x, &t.column(1)[layout.rows_of_block(b)]);
                assert_eq!(origins, [want; 2], "pass {pass}, block {b}");
                delivered += 1;
                true
            })
            .unwrap_err();
        assert!(
            matches!(e, StoreError::Corrupt { attr: 0, block, .. } if block == bad),
            "pass {pass}: {e}"
        );
        assert_eq!(delivered, bad, "pass {pass}");
    }
    let cs = be.cache_stats();
    assert_eq!((cs.hits, cs.misses), (2 * bad as u64, 2 * bad as u64));
}
