//! The file-backed columnar storage backend.
//!
//! A block file persists one (pre-shuffled) [`Table`] in the same
//! geometry the engine reads it: fixed-size blocks of dictionary codes,
//! laid out attribute-major so one block's page for one attribute is a
//! single contiguous read — and a *run* of blocks is one contiguous span
//! per attribute. Every page carries a position-keyed checksum, so bit
//! rot *and* misplaced pages surface as [`StoreError::Corrupt`] rather
//! than silently wrong histograms.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic "FMCOL002"  tuples_per_block:u32  n_rows:u64  n_attrs:u32
//! │ per attr: name_len:u16  name:utf8  cardinality:u32
//! │ header_checksum:u64 (sum64 over all preceding header bytes)  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ attr 0, block 0: codes (block_len·4 bytes LE)  checksum:u64  │
//! │ attr 0, block 1: …                                           │
//! │ …                                                            │
//! │ attr 1, block 0: …                                           │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every checksum is [`sum64`]. A file with another magic — `FMCOL001`,
//! the format whose checksum was FNV-1a, included — is refused with a
//! [`StoreError::Format`] naming the magic found and the one expected;
//! there is no reader and no migration for an older format.
//!
//! All integers are little-endian. Page offsets are computable in O(1):
//! every block before the last is full, so attribute `a`'s region has a
//! fixed stride and block `b`'s page sits at
//! `header_len + a·stride + b·(tuples_per_block·4 + 8)`.
//!
//! [`FileBackend`] serves reads through a bounded, sharded **block
//! cache** with clock (second-chance) eviction: each cache shard is an
//! independently locked clock ring, so the engine's per-shard workers
//! rarely contend on the same lock, and the cache's codes are capped
//! at a fixed number of pages regardless of table size. A shard finds a
//! page through a direct page table, not a hash map: 4 bytes per page
//! of the file in that shard, whatever the capacity — see
//! [`FileBackend::with_cache_blocks`] for the memory bound.
//!
//! # One read path: chunks
//!
//! Every demand read — one page ([`StorageBackend::read_block_into`]),
//! one block pair ([`StorageBackend::read_block_pair_into`]) or a run of
//! blocks ([`StorageBackend::read_run_pair_into`]) — is served a *chunk*
//! at a time (at most [`RUN_CHUNK_BLOCKS`] blocks of the requested
//! attributes) by the same four steps:
//!
//! 1. **probe** the cache per page, copying hits straight into the
//!    caller's buffers;
//! 2. **fetch** each maximal span of uncached pages of one attribute
//!    with a *single* positioned read (`pread` on Unix, no lock, cache
//!    locks released) into a per-thread byte buffer that is reused from
//!    read to read;
//! 3. **verify** the fetched pages' checksums [`LANES`] at a time
//!    ([`sum64_each`]: the same values as [`sum64`] page by page, with
//!    four multiply chains in flight — a block pair verifies its two
//!    pages as two lanes);
//! 4. **decode** each verified page into the caller's buffer and fill a
//!    cache slot by overwriting the clock victim's storage. A page that
//!    fails verification is never cached; the blocks before it are still
//!    delivered, then the read fails with [`StoreError::Corrupt`] naming
//!    the page.
//!
//! # Reads happen on demand only
//!
//! The backend runs no threads of its own. A run is read a chunk at a
//! time as its visitor consumes it; block *selection* running ahead of
//! I/O (paper §4, Figure 6) is the executors' lookahead marker, not the
//! backend's business. DESIGN.md § "No readahead pool" has the
//! measurements behind this.
//!
//! # What the counters count
//!
//! [`CacheStats::hits`] / [`CacheStats::misses`] (and the per-reader
//! [`crate::io::IoStats`] page counters) count pages *delivered* to a
//! demand reader, two per block: a run whose visitor stops mid-chunk has
//! fetched pages it is not charged for. Every page is a
//! [`PageOrigin::CacheHit`] or a [`PageOrigin::CacheMiss`];
//! [`CacheStats::pages_prefetched`] and [`CacheStats::prefetched_hits`]
//! are always 0.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[cfg(not(unix))]
use std::io::{Seek, SeekFrom};

use crate::backend::{BlockVisitor, PageOrigin, StorageBackend};
use crate::block::BlockLayout;
#[cfg(doc)]
use crate::checksum::LANES;
use crate::checksum::{sum64, sum64_each, BASIS};
use crate::error::{Result, StoreError};
use crate::schema::{AttrDef, Schema};
use crate::table::Table;

/// File magic: identifies format and version.
pub(crate) const MAGIC: &[u8; 8] = b"FMCOL002";

/// The error for a file whose magic is not `expected`: it names both,
/// so a file of another format version says which one it is.
pub(crate) fn magic_error(found: &[u8], expected: &[u8; 8]) -> StoreError {
    StoreError::Format(format!(
        "magic {:?} found, {:?} expected",
        String::from_utf8_lossy(found),
        String::from_utf8_lossy(expected)
    ))
}

/// Bytes of the per-page checksum.
const PAGE_CHECKSUM_BYTES: usize = 8;

/// Default block-cache capacity, in pages (≈ 2.4 MB at the paper's
/// 600-byte pages).
pub const DEFAULT_CACHE_BLOCKS: usize = 4096;

/// Number of independently locked cache shards.
const CACHE_SHARDS: usize = 8;

/// Blocks served per chunk of a run read (and encoded per write of the
/// table writer): one positioned read per attribute covers this many
/// pages. At the paper's 600-byte pages a chunk is 38 KB of file bytes
/// and 75 KB of decoded codes — inside L2, and 64 pages amortize the
/// read call to well under its per-page cost.
pub const RUN_CHUNK_BLOCKS: usize = 64;

// ---------------------------------------------------------------- pages

/// Position key mixed into a page's checksum basis.
fn page_basis(attr: usize, block: usize) -> u64 {
    BASIS ^ ((attr as u64) << 32) ^ block as u64
}

/// Bytes of one full page: its codes and its checksum.
fn page_stride(tuples_per_block: usize) -> usize {
    tuples_per_block * 4 + PAGE_CHECKSUM_BYTES
}

/// Decodes a little-endian `u32` from the first 4 bytes of `bytes`
/// (callers bound-check first; the decode itself is infallible).
pub(crate) fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// Decodes a little-endian `u64` from the first 8 bytes of `bytes`.
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// Little-endian encodes `codes` into `bytes` (`4 × codes.len()` long).
fn encode_codes(codes: &[u32], bytes: &mut [u8]) {
    for (dst, code) in bytes.chunks_exact_mut(4).zip(codes) {
        dst.copy_from_slice(&code.to_le_bytes());
    }
}

/// Inverse of [`encode_codes`].
fn decode_codes(bytes: &[u8], codes: &mut [u32]) {
    for (code, src) in codes.iter_mut().zip(bytes.chunks_exact(4)) {
        *code = le_u32(src);
    }
}

// ---------------------------------------------------------------- writer

/// Persists `table` to `path` in the block-file format, under a layout
/// with the given block size. Returns the number of bytes written.
///
/// The table should already be shuffled ([`crate::shuffle`]): the
/// sampling guarantees of everything reading the file assume on-disk
/// order is a uniform permutation.
///
/// # Panics
/// Panics if `tuples_per_block` is zero (as [`BlockLayout::new`] does).
pub fn write_table(path: &Path, table: &Table, tuples_per_block: usize) -> Result<u64> {
    write_table_impl(path, table, tuples_per_block, false)
}

/// Crash-safe variant of [`write_table`]: the table is written to a
/// sibling temp file (`<name>.tmp`), fsynced, atomically renamed to
/// `path`, and the parent directory is fsynced so the rename itself is
/// durable. A reader of `path` therefore observes either the previous
/// file (or nothing) or the complete new one — never a torn write. Any
/// failure removes the temp file and leaves `path` untouched.
///
/// This is the path the live table's sealer and compactor persist
/// through; [`write_table`] remains for offline pipelines where the
/// caller owns durability.
///
/// # Panics
/// Panics if `tuples_per_block` is zero (as [`BlockLayout::new`] does).
pub fn write_table_atomic(path: &Path, table: &Table, tuples_per_block: usize) -> Result<u64> {
    let tmp = tmp_sibling(path);
    let written = match write_table_impl(&tmp, table, tuples_per_block, true) {
        Ok(w) => w,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    };
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Some(dir) = path.parent() {
        fsync_dir(dir)?;
    }
    Ok(written)
}

/// The sibling temp-file name atomic writers stage through: the final
/// name with `.tmp` appended (same directory, so the rename cannot
/// cross filesystems). Recovery scans ignore and clean up `*.tmp`.
pub(crate) fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// Fsyncs a directory so a just-performed rename/unlink in it is
/// durable. On non-Unix platforms directories cannot be opened for
/// syncing; the rename's own atomicity is the best guarantee there.
pub(crate) fn fsync_dir(dir: &Path) -> Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

fn write_table_impl(
    path: &Path,
    table: &Table,
    tuples_per_block: usize,
    sync: bool,
) -> Result<u64> {
    let layout = BlockLayout::new(table.n_rows(), tuples_per_block);
    let mut header = Vec::new();
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&(tuples_per_block as u32).to_le_bytes());
    header.extend_from_slice(&(table.n_rows() as u64).to_le_bytes());
    header.extend_from_slice(&(table.schema().len() as u32).to_le_bytes());
    for attr in table.schema().attrs() {
        let name = attr.name.as_bytes();
        assert!(name.len() <= u16::MAX as usize, "attribute name too long");
        header.extend_from_slice(&(name.len() as u16).to_le_bytes());
        header.extend_from_slice(name);
        header.extend_from_slice(&attr.cardinality.to_le_bytes());
    }
    header.extend_from_slice(&sum64(BASIS, &header).to_le_bytes());

    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(&header)?;
    let mut written = header.len() as u64;
    // A chunk of pages at a time: encode the codes in bulk, checksum the
    // chunk's pages in lanes, patch the checksums in, write once.
    let stride = page_stride(tuples_per_block);
    let nb = layout.num_blocks();
    let mut chunk = Vec::new();
    let mut sums = [0u64; RUN_CHUNK_BLOCKS];
    for a in 0..table.schema().len() {
        let col = table.column(a);
        for b0 in (0..nb).step_by(RUN_CHUNK_BLOCKS) {
            let b1 = (b0 + RUN_CHUNK_BLOCKS).min(nb);
            let code_bytes = |b: usize| layout.block_len(b) * 4;
            chunk.clear();
            chunk.resize(
                (b1 - b0 - 1) * stride + code_bytes(b1 - 1) + PAGE_CHECKSUM_BYTES,
                0,
            );
            for b in b0..b1 {
                let at = (b - b0) * stride;
                encode_codes(
                    &col[layout.rows_of_block(b)],
                    &mut chunk[at..at + code_bytes(b)],
                );
            }
            sum64_each(
                b1 - b0,
                |i| {
                    (
                        page_basis(a, b0 + i),
                        &chunk[i * stride..][..code_bytes(b0 + i)],
                    )
                },
                |i, sum| sums[i] = sum,
            );
            for b in b0..b1 {
                let at = (b - b0) * stride + code_bytes(b);
                chunk[at..at + PAGE_CHECKSUM_BYTES].copy_from_slice(&sums[b - b0].to_le_bytes());
            }
            out.write_all(&chunk)?;
            written += chunk.len() as u64;
        }
    }
    out.flush()?;
    if sync {
        out.get_ref().sync_all()?;
    }
    Ok(written)
}

// ---------------------------------------------------------------- cache

/// Block-cache observability counters (monotone since backend creation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Pages delivered to demand readers from the cache.
    pub hits: u64,
    /// Pages delivered to demand readers that went to disk.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Cache-pressure events: second chances revoked by the clock hand
    /// (a *referenced* — i.e. recently re-used — page had its reference
    /// bit stripped to make eviction possible). Zero while the working
    /// set fits; grows with every sweep once concurrent readers push the
    /// combined working set past capacity, which makes it the leading
    /// indicator of hit-rate collapse under multi-query load.
    pub pressure: u64,
    /// Always 0: nothing loads pages ahead of demand. Kept, with
    /// [`Self::prefetched_hits`], for callers that still report it.
    pub pages_prefetched: u64,
    /// Always 0; see [`Self::pages_prefetched`].
    pub prefetched_hits: u64,
}

impl CacheStats {
    /// Global hit rate (1.0 before any request).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The per-field difference `self − earlier` (both monotone), for
    /// windowed measurements over a long-lived backend.
    ///
    /// # Panics
    /// Panics — in **all** build profiles — if any field of `earlier`
    /// exceeds `self`'s, as it does for a snapshot taken before
    /// [`FileBackend::with_cache_blocks`] zeroed the counters. A wrapped
    /// subtraction would otherwise report a huge count as a measurement.
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        assert!(
            self.hits >= earlier.hits
                && self.misses >= earlier.misses
                && self.evictions >= earlier.evictions
                && self.pressure >= earlier.pressure
                && self.pages_prefetched >= earlier.pages_prefetched
                && self.prefetched_hits >= earlier.prefetched_hits,
            "CacheStats::since with a later snapshot: {self:?} since {earlier:?}"
        );
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            pressure: self.pressure - earlier.pressure,
            pages_prefetched: self.pages_prefetched - earlier.pages_prefetched,
            prefetched_hits: self.prefetched_hits - earlier.prefetched_hits,
        }
    }
}

/// One clock slot: the page it holds (its index in the shard's page
/// table) and its reference bit.
#[derive(Debug)]
struct Slot {
    page: usize,
    referenced: bool,
}

/// One independently locked clock ring. A page is found through a
/// direct page table, not a hash map: a hit reads one table entry and
/// the slot's codes, where a hash probe chased a control group, a
/// bucket, the slot and the page's own allocation — each a cache miss
/// once the cached file outgrows L2.
#[derive(Debug, Default)]
struct CacheShard {
    /// Per page of the file in this shard, at the index
    /// [`BlockCache::locate`] gives: 1 + the slot caching it, or 0.
    /// Allocated zeroed at the first fill (`pages` entries), so it
    /// grows with the file, not with `cap`.
    table: Vec<u32>,
    pages: usize,
    slots: Vec<Slot>,
    /// The slots' codes, `stride` (tuples per block) per slot; the
    /// file's short last page fills a prefix.
    codes: Vec<u32>,
    stride: usize,
    hand: usize,
    cap: usize,
}

/// What one [`CacheShard::insert`] did, for the shared counters.
#[derive(Debug, Clone, Copy, Default)]
struct InsertOutcome {
    /// A page was evicted to make room.
    evicted: bool,
    /// Reference bits the clock hand had to strip before finding a
    /// victim (cache-pressure events).
    second_chances_revoked: u64,
}

impl CacheShard {
    /// The slot caching page `at`, if any.
    fn slot(&self, at: usize) -> Option<usize> {
        match self.table.get(at) {
            Some(&slot) if slot > 0 => Some(slot as usize - 1),
            _ => None,
        }
    }

    /// Inserts page `at` (the shard must have capacity), clock-evicting
    /// if it is full. The victim's storage is overwritten in place, so a
    /// full shard allocates nothing; the slots' storage is reserved at
    /// the first insert, so a filling shard never copies it either.
    fn insert(&mut self, at: usize, codes: &[u32]) -> InsertOutcome {
        if self.table.is_empty() {
            self.table = vec![0; self.pages];
            self.codes
                .reserve_exact(self.cap.min(self.pages) * self.stride);
        }
        let mut outcome = InsertOutcome::default();
        if self.slots.len() < self.cap {
            self.table[at] = self.slots.len() as u32 + 1;
            self.slots.push(Slot {
                page: at,
                referenced: true,
            });
            self.codes.extend_from_slice(codes);
            self.codes.resize(self.slots.len() * self.stride, 0);
            return outcome;
        }
        loop {
            let victim = &mut self.slots[self.hand];
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.cap;
            if victim.referenced {
                victim.referenced = false;
                outcome.second_chances_revoked += 1;
            } else {
                self.table[victim.page] = 0;
                self.table[at] = slot as u32 + 1;
                victim.page = at;
                victim.referenced = true;
                self.codes[slot * self.stride..][..codes.len()].copy_from_slice(codes);
                outcome.evicted = true;
                return outcome;
            }
        }
    }
}

/// Pages delivered to one demand read, by origin — tallied locally and
/// added to the shared counters once per chunk.
#[derive(Debug, Default)]
struct DemandTally {
    hits: u64,
    misses: u64,
}

impl DemandTally {
    fn add(&mut self, origin: PageOrigin) {
        match origin {
            PageOrigin::CacheHit | PageOrigin::PrefetchedHit => self.hits += 1,
            PageOrigin::CacheMiss => self.misses += 1,
            PageOrigin::Memory => {}
        }
    }
}

/// Bounded page cache over one file's pages: `CACHE_SHARDS`
/// independently locked clock rings.
#[derive(Debug)]
struct BlockCache {
    shards: Vec<Mutex<CacheShard>>,
    /// Page-table entries per attribute in one shard.
    blocks_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    pressure: AtomicU64,
}

impl BlockCache {
    /// An empty cache bounded at `capacity_blocks` pages of a file of
    /// `attrs` attributes × `num_blocks` blocks, distributed exactly:
    /// the first `capacity % SHARDS` shards get one extra slot, so the
    /// total bound is the requested one (a shard with capacity 0 simply
    /// never caches).
    fn new(
        capacity_blocks: usize,
        attrs: usize,
        num_blocks: usize,
        tuples_per_block: usize,
    ) -> Self {
        assert!(capacity_blocks > 0, "cache capacity must be positive");
        let cap_of =
            |i| capacity_blocks / CACHE_SHARDS + usize::from(i < capacity_blocks % CACHE_SHARDS);
        assert!(
            cap_of(0) < u32::MAX as usize,
            "cache capacity overflows its page table"
        );
        let blocks_per_shard = num_blocks.div_ceil(CACHE_SHARDS);
        BlockCache {
            shards: (0..CACHE_SHARDS)
                .map(|i| {
                    Mutex::new(CacheShard {
                        pages: attrs * blocks_per_shard,
                        stride: tuples_per_block,
                        cap: cap_of(i),
                        ..CacheShard::default()
                    })
                })
                .collect(),
            blocks_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pressure: AtomicU64::new(0),
        }
    }

    /// Where page `key` lives: its shard, and its index in that shard's
    /// page table. The one page → shard mapping every cache access uses:
    /// consecutive block ids land in different shards, so the engine's
    /// contiguous-range shard workers spread over all locks.
    fn locate(&self, key: u64) -> (usize, usize) {
        let (attr, block) = ((key >> 32) as usize, (key & u64::from(u32::MAX)) as usize);
        (
            block % CACHE_SHARDS,
            attr * self.blocks_per_shard + block / CACHE_SHARDS,
        )
    }

    /// Demand probe: copies the cached page for `key` into `dest` (which
    /// must be exactly the page's length). `false` on a miss.
    fn copy_out(&self, key: u64, dest: &mut [u32]) -> bool {
        let (s, at) = self.locate(key);
        let shard = &self.shards[s];
        let mut guard = shard.lock().unwrap();
        let Some(slot) = guard.slot(at) else {
            return false;
        };
        guard.slots[slot].referenced = true;
        dest.copy_from_slice(&guard.codes[slot * guard.stride..][..dest.len()]);
        true
    }

    /// Caches a verified page unless it is already present. The page was
    /// fetched with the shard lock released, so two racing readers of one
    /// page may both have hit the disk; that is benign — whoever arrives
    /// second finds the key and leaves it.
    fn fill(&self, key: u64, codes: &[u32]) {
        let (s, at) = self.locate(key);
        let shard = &self.shards[s];
        let mut guard = shard.lock().unwrap();
        if guard.cap == 0 || guard.slot(at).is_some() {
            return;
        }
        let outcome = guard.insert(at, codes);
        drop(guard);
        if outcome.evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.second_chances_revoked > 0 {
            self.pressure
                .fetch_add(outcome.second_chances_revoked, Ordering::Relaxed);
        }
    }

    fn record_demand(&self, tally: DemandTally) {
        for (counter, n) in [(&self.hits, tally.hits), (&self.misses, tally.misses)] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pressure: self.pressure.load(Ordering::Relaxed),
            pages_prefetched: 0,
            prefetched_hits: 0,
        }
    }
}

// ---------------------------------------------------------------- backend

/// Positioned-read file handle: on Unix, `pread` through
/// `FileExt::read_exact_at` needs no lock at all, so concurrent shard
/// workers overlap their disk fetches; elsewhere a mutexed seek+read
/// fallback keeps the code portable.
#[derive(Debug)]
struct PageFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
}

impl PageFile {
    fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            PageFile { file }
        }
        #[cfg(not(unix))]
        {
            PageFile {
                file: Mutex::new(file),
            }
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, off)
        }
        #[cfg(not(unix))]
        {
            let mut f = self.file.lock().unwrap();
            f.seek(SeekFrom::Start(off))?;
            f.read_exact(buf)
        }
    }
}

/// One page fetched from the file and awaiting verification.
#[derive(Debug, Clone, Copy)]
struct Fetched {
    /// Which of the requesting read's attributes (index into its
    /// attribute array) the page belongs to.
    lane: usize,
    attr: usize,
    block: usize,
    /// Offset of the page's first code byte in [`Scratch::bytes`].
    off: usize,
}

/// Per-thread working storage of the chunk read path, reused from read
/// to read so a steady-state read allocates nothing. Borrowed only while
/// a chunk is fetched, verified and decoded — never across a visitor
/// call, so a visitor may itself read from a backend.
#[derive(Debug, Default)]
struct Scratch {
    /// Raw bytes of every span fetched for the current chunk, back to
    /// back (`..used`; the storage beyond is stale and never shrinks).
    bytes: Vec<u8>,
    used: usize,
    /// The pages inside `bytes`, in fetch order.
    pages: Vec<Fetched>,
    /// `pages[i]`'s computed checksum.
    sums: Vec<u64>,
}

impl Scratch {
    fn start_chunk(&mut self) {
        self.used = 0;
        self.pages.clear();
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The cache key of one attribute page.
fn page_key(attr: usize, b: usize) -> u64 {
    ((attr as u64) << 32) | b as u64
}

/// A read-only [`StorageBackend`] over a block file written by
/// [`write_table`], with a bounded block cache (see the
/// [module docs](self)).
///
/// Cloning is not supported; share one backend across threads by
/// reference (all methods take `&self`).
#[derive(Debug)]
pub struct FileBackend {
    file: PageFile,
    schema: Schema,
    layout: BlockLayout,
    /// Offset of the first page (= header length).
    data_off: u64,
    /// Bytes of one attribute's page region.
    attr_stride: u64,
    cache: BlockCache,
}

impl FileBackend {
    /// Opens a block file, validating its header and overall geometry,
    /// with the default cache capacity ([`DEFAULT_CACHE_BLOCKS`]).
    pub fn open(path: &Path) -> Result<Self> {
        let mut file = File::open(path)?;
        let mut header = vec![0u8; 8 + 4 + 8 + 4];
        file.read_exact(&mut header)
            .map_err(|_| StoreError::Format("truncated header".into()))?;
        if &header[..8] != MAGIC {
            return Err(magic_error(&header[..8], MAGIC));
        }
        let tuples_per_block = le_u32(&header[8..]) as usize;
        let n_rows = le_u64(&header[12..]);
        let n_attrs = le_u32(&header[20..]) as usize;
        if tuples_per_block == 0 {
            return Err(StoreError::Format("zero block size".into()));
        }
        if n_attrs == 0 || n_attrs > u16::MAX as usize {
            return Err(StoreError::Format(format!(
                "implausible attr count {n_attrs}"
            )));
        }
        if n_rows > u32::MAX as u64 * tuples_per_block as u64 {
            return Err(StoreError::Format("row count overflows block ids".into()));
        }
        let mut attrs = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            let mut len_buf = [0u8; 2];
            file.read_exact(&mut len_buf)
                .map_err(|_| StoreError::Format("truncated attribute table".into()))?;
            header.extend_from_slice(&len_buf);
            let name_len = u16::from_le_bytes(len_buf) as usize;
            let mut rest = vec![0u8; name_len + 4];
            file.read_exact(&mut rest)
                .map_err(|_| StoreError::Format("truncated attribute table".into()))?;
            header.extend_from_slice(&rest);
            let name = std::str::from_utf8(&rest[..name_len])
                .map_err(|_| StoreError::Format("attribute name is not UTF-8".into()))?
                .to_string();
            let cardinality = le_u32(&rest[name_len..]);
            attrs.push(AttrDef::new(name, cardinality));
        }
        let mut ck_buf = [0u8; 8];
        file.read_exact(&mut ck_buf)
            .map_err(|_| StoreError::Format("truncated header checksum".into()))?;
        let stored = u64::from_le_bytes(ck_buf);
        let computed = sum64(BASIS, &header);
        if stored != computed {
            return Err(StoreError::Format(format!(
                "header checksum mismatch (stored {stored:#x}, computed {computed:#x})"
            )));
        }
        let data_off = header.len() as u64 + 8;
        let layout = BlockLayout::new(n_rows as usize, tuples_per_block);
        let nb = layout.num_blocks() as u64;
        // Checked arithmetic throughout: these values come from the file,
        // and a crafted header must yield a Format error, not an
        // overflow panic.
        let attr_stride = n_rows
            .checked_mul(4)
            .and_then(|codes| codes.checked_add(nb.checked_mul(PAGE_CHECKSUM_BYTES as u64)?))
            .ok_or_else(|| StoreError::Format("geometry overflows u64".into()))?;
        let expected_len = (n_attrs as u64)
            .checked_mul(attr_stride)
            .and_then(|pages| pages.checked_add(data_off))
            .ok_or_else(|| StoreError::Format("geometry overflows u64".into()))?;
        let actual_len = file.metadata()?.len();
        if actual_len != expected_len {
            return Err(StoreError::Format(format!(
                "file is {actual_len} bytes, geometry requires {expected_len}"
            )));
        }
        Ok(FileBackend {
            file: PageFile::new(file),
            schema: Schema::new(attrs),
            layout,
            data_off,
            attr_stride,
            cache: BlockCache::new(
                DEFAULT_CACHE_BLOCKS,
                n_attrs,
                layout.num_blocks(),
                tuples_per_block,
            ),
        })
    }

    /// Writes `table` to `path` and opens it — the one-call persistence
    /// path used by preprocessing pipelines.
    pub fn create(path: &Path, table: &Table, tuples_per_block: usize) -> Result<Self> {
        write_table(path, table, tuples_per_block)?;
        Self::open(path)
    }

    /// Rebounds the block cache at `capacity_blocks` pages, dropping
    /// every cached page and resetting cache statistics.
    ///
    /// Memory: at most `capacity_blocks` pages of codes, plus a page
    /// table of 4 bytes per page of the file (attributes × blocks, about
    /// 0.7 % of the file's bytes at 150 tuples per block), allocated
    /// zeroed at each shard's first fill whatever the capacity. A hit
    /// is one table read and a copy; a capacity-sized hash index cost a
    /// served query ~9 % more on a warm two-worker service (EXPERIMENTS.md).
    pub fn with_cache_blocks(mut self, capacity_blocks: usize) -> Self {
        self.cache = BlockCache::new(
            capacity_blocks,
            self.schema.len(),
            self.layout.num_blocks(),
            self.layout.tuples_per_block(),
        );
        self
    }

    /// Cache hit/miss/eviction counters since creation (or the last
    /// [`Self::with_cache_blocks`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn code_bytes(&self, b: usize) -> usize {
        self.layout.block_len(b) * 4
    }

    fn check_request(&self, attrs: &[usize], blocks: &Range<usize>) {
        for &attr in attrs {
            assert!(attr < self.schema.len(), "attribute {attr} out of range");
        }
        assert!(
            blocks.end <= self.layout.num_blocks(),
            "block {} out of range",
            blocks.end.saturating_sub(1)
        );
    }

    /// Fetches the pages of `attr` in `blocks` that `uncached(i, b)` (`i`
    /// counting from the range's start) says are wanted — one positioned
    /// read per maximal span of wanted pages — appending them to
    /// `scratch`.
    fn fetch_uncached(
        &self,
        scratch: &mut Scratch,
        lane: usize,
        attr: usize,
        blocks: Range<usize>,
        mut uncached: impl FnMut(usize, usize) -> bool,
    ) -> std::io::Result<()> {
        let stride = page_stride(self.layout.tuples_per_block());
        let mut fetch = |span: Range<usize>| {
            let len =
                (span.len() - 1) * stride + self.code_bytes(span.end - 1) + PAGE_CHECKSUM_BYTES;
            let at = scratch.used;
            if scratch.bytes.len() < at + len {
                scratch.bytes.resize(at + len, 0);
            }
            let file_off =
                self.data_off + attr as u64 * self.attr_stride + (span.start * stride) as u64;
            self.file
                .read_exact_at(&mut scratch.bytes[at..at + len], file_off)?;
            scratch.used += len;
            scratch
                .pages
                .extend(span.enumerate().map(|(i, block)| Fetched {
                    lane,
                    attr,
                    block,
                    off: at + i * stride,
                }));
            Ok(())
        };
        let mut span_start = None;
        for (i, b) in blocks.clone().enumerate() {
            if uncached(i, b) {
                span_start.get_or_insert(b);
            } else if let Some(s) = span_start.take() {
                fetch(s..b)?;
            }
        }
        match span_start {
            Some(s) => fetch(s..blocks.end),
            None => Ok(()),
        }
    }

    /// Verifies every fetched page — checksums computed in lanes — and
    /// hands each good one's code bytes to `good`. Returns the corrupt
    /// page that a page-at-a-time reader going block by block, lane by
    /// lane, would have met first, if any.
    fn verify_fetched(
        &self,
        scratch: &mut Scratch,
        mut good: impl FnMut(&Fetched, &[u8]),
    ) -> Option<(usize, StoreError)> {
        let Scratch {
            bytes, pages, sums, ..
        } = scratch;
        sums.clear();
        sums.resize(pages.len(), 0);
        sum64_each(
            pages.len(),
            |i| {
                let p = &pages[i];
                (
                    page_basis(p.attr, p.block),
                    &bytes[p.off..p.off + self.code_bytes(p.block)],
                )
            },
            |i, sum| sums[i] = sum,
        );
        let mut first_bad: Option<(&Fetched, u64, u64)> = None;
        for (p, &computed) in pages.iter().zip(sums.iter()) {
            let (codes, rest) = bytes[p.off..].split_at(self.code_bytes(p.block));
            let stored = le_u64(rest);
            if stored == computed {
                good(p, codes);
            } else if first_bad.is_none_or(|(q, ..)| (p.block, p.lane) < (q.block, q.lane)) {
                first_bad = Some((p, stored, computed));
            }
        }
        first_bad.map(|(p, stored, computed)| {
            (
                p.block,
                StoreError::Corrupt {
                    attr: p.attr,
                    block: p.block,
                    detail: format!(
                        "checksum mismatch (stored {stored:#x}, computed {computed:#x})"
                    ),
                },
            )
        })
    }

    /// Serves one chunk (see the [module docs](self)): the pages of
    /// `attrs[k]` over `blocks` land in `outs[k]`, block `blocks.start +
    /// i` at code offset `i × tuples_per_block`, and `origins[i][k]` says
    /// where each came from. On failure the error carries how many
    /// leading blocks are intact in every `outs[k]`.
    fn load_chunk<const A: usize>(
        &self,
        attrs: [usize; A],
        blocks: Range<usize>,
        mut outs: [&mut Vec<u32>; A],
        origins: &mut [[PageOrigin; A]],
    ) -> std::result::Result<(), (usize, StoreError)> {
        let tpb = self.layout.tuples_per_block();
        let codes = self.layout.rows_of_block(blocks.end - 1).end
            - self.layout.rows_of_block(blocks.start).start;
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.start_chunk();
            for (lane, &attr) in attrs.iter().enumerate() {
                let out = &mut *outs[lane];
                out.resize(codes, 0);
                self.fetch_uncached(scratch, lane, attr, blocks.clone(), |i, b| {
                    let dest = &mut out[i * tpb..][..self.layout.block_len(b)];
                    let hit = self.cache.copy_out(page_key(attr, b), dest);
                    origins[i][lane] = if hit {
                        PageOrigin::CacheHit
                    } else {
                        PageOrigin::CacheMiss
                    };
                    !hit
                })
                .map_err(|e| (0, e.into()))?;
            }
            let bad = self.verify_fetched(scratch, |p, bytes| {
                let dest = &mut outs[p.lane][(p.block - blocks.start) * tpb..][..bytes.len() / 4];
                decode_codes(bytes, dest);
                self.cache.fill(page_key(p.attr, p.block), dest);
            });
            match bad {
                None => Ok(()),
                Some((block, e)) => Err((block - blocks.start, e)),
            }
        })
    }

    /// The per-block read path: a chunk of one block, its `A` pages
    /// verified as `A` lanes.
    fn read_chunk_of_one<const A: usize>(
        &self,
        attrs: [usize; A],
        b: usize,
        outs: [&mut Vec<u32>; A],
    ) -> Result<[PageOrigin; A]> {
        self.check_request(&attrs, &(b..b + 1));
        let mut origins = [[PageOrigin::CacheMiss; A]];
        self.load_chunk(attrs, b..b + 1, outs, &mut origins)
            .map_err(|(_, e)| e)?;
        let mut tally = DemandTally::default();
        origins[0].iter().for_each(|&o| tally.add(o));
        self.cache.record_demand(tally);
        Ok(origins[0])
    }
}

impl StorageBackend for FileBackend {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn layout(&self) -> BlockLayout {
        self.layout
    }

    fn read_block_into(&self, b: usize, attr: usize, out: &mut Vec<u32>) -> Result<PageOrigin> {
        let [origin] = self.read_chunk_of_one([attr], b, [out])?;
        Ok(origin)
    }

    fn read_block_pair_into(
        &self,
        b: usize,
        z_attr: usize,
        x_attr: usize,
        zs: &mut Vec<u32>,
        xs: &mut Vec<u32>,
    ) -> Result<[PageOrigin; 2]> {
        self.read_chunk_of_one([z_attr, x_attr], b, [zs, xs])
    }

    fn read_run_pair_into(
        &self,
        blocks: Range<usize>,
        z_attr: usize,
        x_attr: usize,
        zs: &mut Vec<u32>,
        xs: &mut Vec<u32>,
        visit: &mut BlockVisitor<'_>,
    ) -> Result<bool> {
        let attrs = [z_attr, x_attr];
        self.check_request(&attrs, &blocks);
        let tpb = self.layout.tuples_per_block();
        let mut origins = [[PageOrigin::CacheMiss; 2]; RUN_CHUNK_BLOCKS];
        for first in blocks.clone().step_by(RUN_CHUNK_BLOCKS) {
            let chunk = first..(first + RUN_CHUNK_BLOCKS).min(blocks.end);
            let outs = [&mut *zs, &mut *xs];
            let loaded = self.load_chunk(attrs, chunk.clone(), outs, &mut origins);
            let intact = match &loaded {
                Ok(()) => chunk.len(),
                Err((intact, _)) => *intact,
            };
            let mut tally = DemandTally::default();
            let mut stopped = false;
            for (i, b) in (first..first + intact).enumerate() {
                let rows = i * tpb..i * tpb + self.layout.block_len(b);
                tally.add(origins[i][0]);
                tally.add(origins[i][1]);
                if !visit(b, &zs[rows.clone()], &xs[rows], origins[i]) {
                    stopped = true;
                    break;
                }
            }
            self.cache.record_demand(tally);
            if stopped {
                return Ok(false);
            }
            if let Err((_, e)) = loaded {
                return Err(e);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    static UNIQ: AtomicUsize = AtomicUsize::new(0);

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "fastmatch_file_{}_{}_{}.fmb",
            tag,
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn table(rows: usize) -> Table {
        let schema = Schema::new(vec![AttrDef::new("z", 7), AttrDef::new("x", 3)]);
        let z: Vec<u32> = (0..rows as u32).map(|r| r.wrapping_mul(13) % 7).collect();
        let x: Vec<u32> = (0..rows as u32).map(|r| r.wrapping_mul(5) % 3).collect();
        Table::new(schema, vec![z, x])
    }

    #[test]
    fn roundtrip_preserves_all_pages() {
        let t = table(103);
        let path = tmp_path("roundtrip");
        let be = FileBackend::create(&path, &t, 10).unwrap();
        assert_eq!(be.schema().len(), 2);
        assert_eq!(be.schema().attr(0).name, "z");
        assert_eq!(be.cardinality(0), 7);
        assert_eq!(be.n_rows(), 103);
        let layout = be.layout();
        let mut buf = Vec::new();
        for a in 0..2 {
            for b in 0..layout.num_blocks() {
                be.read_block_into(b, a, &mut buf).unwrap();
                assert_eq!(buf.as_slice(), &t.column(a)[layout.rows_of_block(b)]);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_table_roundtrips() {
        let t = Table::new(Schema::new(vec![AttrDef::new("a", 1)]), vec![vec![]]);
        let path = tmp_path("empty");
        let be = FileBackend::create(&path, &t, 16).unwrap();
        assert_eq!(be.n_rows(), 0);
        assert_eq!(be.layout().num_blocks(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_page_checksum_is_an_error_not_a_panic() {
        let t = table(64);
        let path = tmp_path("corrupt");
        write_table(&path, &t, 8).unwrap();
        // Flip the final byte: inside the last page's checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let be = FileBackend::open(&path).unwrap();
        let layout = be.layout();
        let mut buf = Vec::new();
        // Untouched page still reads fine…
        be.read_block_into(0, 0, &mut buf).unwrap();
        // …the damaged one surfaces Corrupt.
        let err = be
            .read_block_into(layout.num_blocks() - 1, 1, &mut buf)
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { attr: 1, .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_header_is_rejected_at_open() {
        let t = table(16);
        let path = tmp_path("badheader");
        write_table(&path, &t, 8).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x01; // tuples_per_block field
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileBackend::open(&path),
            Err(StoreError::Format(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected_at_open() {
        let t = table(40);
        let path = tmp_path("trunc");
        write_table(&path, &t, 8).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            FileBackend::open(&path),
            Err(StoreError::Format(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp_path("magic");
        std::fs::write(&path, b"NOTAFILExxxxxxxxxxxxxxxxxxxx").unwrap();
        let Err(StoreError::Format(msg)) = FileBackend::open(&path) else {
            panic!("a bad magic must be a format error");
        };
        assert!(
            msg.contains("NOTAFILE") && msg.contains("FMCOL002"),
            "{msg}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cache_hits_on_rereads_and_stays_bounded() {
        let t = table(400); // 50 blocks of 8 per attr
        let path = tmp_path("cache");
        let be = FileBackend::create(&path, &t, 8)
            .unwrap()
            .with_cache_blocks(16);
        let mut buf = Vec::new();
        for b in 0..50 {
            be.read_block_into(b, 0, &mut buf).unwrap();
        }
        let s1 = be.cache_stats();
        assert_eq!(s1.misses, 50);
        assert_eq!(s1.hits, 0);
        assert!(
            s1.evictions > 0,
            "a 16-page cache must evict under 50 pages"
        );
        // A hot block re-read within capacity hits.
        be.read_block_into(49, 0, &mut buf).unwrap();
        let s2 = be.cache_stats();
        assert_eq!(s2.hits, 1);
        // Data stays correct through eviction churn.
        for b in (0..50).rev() {
            be.read_block_into(b, 0, &mut buf).unwrap();
            assert_eq!(buf.as_slice(), &t.column(0)[be.layout().rows_of_block(b)]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Rebounding the cache zeroes its counters, so a snapshot taken
    /// before the rebound is *later* than every one taken after it. The
    /// guard must fire in every build profile: CI also runs this test
    /// with `--release`, where a wrapped subtraction would otherwise
    /// hand a caller a count near 2^64.
    #[test]
    #[should_panic(expected = "CacheStats::since with a later snapshot")]
    fn cache_stats_since_panics_on_misordered_snapshots_in_all_builds() {
        let t = table(80);
        let path = tmp_path("since");
        write_table(&path, &t, 8).unwrap();
        let be = FileBackend::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let mut buf = Vec::new();
        be.read_block_into(0, 0, &mut buf).unwrap();
        let before = be.cache_stats();
        assert_eq!(before.misses, 1);
        let be = be.with_cache_blocks(16);
        let _ = be.cache_stats().since(before);
    }

    #[test]
    fn concurrent_readers_see_consistent_pages() {
        let t = table(256);
        let path = tmp_path("concurrent");
        let be = FileBackend::create(&path, &t, 8)
            .unwrap()
            .with_cache_blocks(8);
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let be = &be;
                let t = &t;
                scope.spawn(move || {
                    let layout = be.layout();
                    let nb = layout.num_blocks();
                    let (mut buf, mut xs) = (Vec::new(), Vec::new());
                    for round in 0..20 {
                        for b in 0..nb {
                            let a = (b + w + round) % 2;
                            be.read_block_into(b, a, &mut buf).unwrap();
                            assert_eq!(buf.as_slice(), &t.column(a)[layout.rows_of_block(b)]);
                        }
                        // Runs of every length up to a chunk and past it,
                        // from a start that walks every shard offset.
                        let start = (w * 7 + round * 3) % nb;
                        let end = (start + 1 + (round * 11 + w) % 80).min(nb);
                        let (z, x) = (round % 2, (round + 1) % 2);
                        let mut next = start;
                        be.read_run_pair_into(
                            start..end,
                            z,
                            x,
                            &mut buf,
                            &mut xs,
                            &mut |b, zc, xc, _| {
                                assert_eq!(b, next);
                                next += 1;
                                assert_eq!(zc, &t.column(z)[layout.rows_of_block(b)]);
                                assert_eq!(xc, &t.column(x)[layout.rows_of_block(b)]);
                                true
                            },
                        )
                        .unwrap();
                        assert_eq!(next, end);
                    }
                });
            }
        });
        std::fs::remove_file(&path).unwrap();
    }

    /// A shard's page table agrees with its clock slots through
    /// thousands of evictions: every page a slot holds is found at that
    /// slot with its codes, and no other page is found.
    #[test]
    fn shard_table_agrees_with_its_slots_under_eviction() {
        let mut shard = CacheShard {
            pages: 500,
            stride: 2,
            cap: 13,
            ..CacheShard::default()
        };
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut evictions = 0;
        for round in 0..4000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let page = (state % 500) as usize;
            match shard.slot(page) {
                Some(slot) => shard.slots[slot].referenced = round % 3 != 0,
                None => evictions += usize::from(shard.insert(page, &[page as u32, 7]).evicted),
            }
            for p in 0..500 {
                let held = shard.slots.iter().position(|s| s.page == p);
                assert_eq!(shard.slot(p), held, "round {round}, page {p}");
                if let Some(slot) = held {
                    assert_eq!(&shard.codes[slot * 2..][..2], &[p as u32, 7]);
                }
            }
        }
        assert!(evictions > 3000, "{evictions}");
    }

    #[test]
    fn crafted_overflowing_header_is_rejected_not_panicking() {
        // A header whose geometry overflows u64 (valid checksum and all)
        // must yield a Format error — never an arithmetic panic.
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&u32::MAX.to_le_bytes()); // tuples_per_block
        header.extend_from_slice(&(1u64 << 63).to_le_bytes()); // n_rows
        header.extend_from_slice(&1u32.to_le_bytes()); // n_attrs
        header.extend_from_slice(&1u16.to_le_bytes());
        header.extend_from_slice(b"z");
        header.extend_from_slice(&4u32.to_le_bytes());
        header.extend_from_slice(&sum64(BASIS, &header).to_le_bytes());
        let path = tmp_path("overflow");
        std::fs::write(&path, &header).unwrap();
        assert!(matches!(
            FileBackend::open(&path),
            Err(StoreError::Format(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_write_roundtrips_and_leaves_no_temp() {
        let t = table(96);
        let path = tmp_path("atomic");
        let written = write_table_atomic(&path, &t, 8).unwrap();
        assert!(written > 0);
        assert!(
            !tmp_sibling(&path).exists(),
            "temp file must be renamed away"
        );
        let be = FileBackend::open(&path).unwrap();
        let mut buf = Vec::new();
        for b in 0..be.layout().num_blocks() {
            be.read_block_into(b, 0, &mut buf).unwrap();
            assert_eq!(buf.as_slice(), &t.column(0)[be.layout().rows_of_block(b)]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_write_is_never_observed_at_the_final_name() {
        // Simulate the crash the atomic path exists for: a writer dies
        // mid-stream. With staging, the partial bytes sit at the temp
        // name — the final name stays absent, so no reader ever opens a
        // torn file there.
        let t = table(64);
        let path = tmp_path("atomic_partial");
        let full = {
            // A complete image, to truncate into a "partial write".
            let scratch = tmp_path("atomic_partial_src");
            write_table(&scratch, &t, 8).unwrap();
            let bytes = std::fs::read(&scratch).unwrap();
            std::fs::remove_file(&scratch).unwrap();
            bytes
        };
        std::fs::write(tmp_sibling(&path), &full[..full.len() / 2]).unwrap();
        assert!(!path.exists(), "torn write stays at the temp name");
        // A retry overwrites the stale temp file and publishes whole.
        write_table_atomic(&path, &t, 8).unwrap();
        assert!(!tmp_sibling(&path).exists());
        assert!(FileBackend::open(&path).is_ok());
        // Contrast: a pre-existing torn file AT the final name (the old
        // non-atomic hazard) is replaced atomically, never read back.
        std::fs::write(&path, &full[..full.len() / 3]).unwrap();
        assert!(
            FileBackend::open(&path).is_err(),
            "torn file must not validate"
        );
        write_table_atomic(&path, &t, 8).unwrap();
        let be = FileBackend::open(&path).unwrap();
        assert_eq!(be.n_rows(), 64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_write_failure_leaves_nothing_behind() {
        let t = table(32);
        let missing = std::env::temp_dir()
            .join(format!("fastmatch_no_such_dir_{}", std::process::id()))
            .join("seg.fmb");
        let err = write_table_atomic(&missing, &t, 8);
        assert!(err.is_err());
        assert!(!missing.exists());
        assert!(!tmp_sibling(&missing).exists());
    }

    #[test]
    fn page_checksums_are_position_keyed() {
        assert_ne!(page_basis(0, 1), page_basis(1, 0));
        assert_ne!(
            sum64(page_basis(0, 0), b"abc"),
            sum64(page_basis(0, 1), b"abc")
        );
    }
}
