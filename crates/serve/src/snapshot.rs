//! The durable on-disk snapshot format (v3): checksummed shard files that
//! grow by appended row batches, made durable by one fsynced manifest.
//!
//! A snapshot is a directory:
//!
//! ```text
//! manifest.hfex     the commit point (see below)
//! shard-NNNN.hfex   shard NNNN; a shard rewritten whole while the live
//!                   snapshot holds that file (its manifest names it, or,
//!                   with no manifest, it is a v1/v2 shard) goes to
//!                   shard-NNNN-gG.hfex, G being the generation of the
//!                   commit that wrote it
//! accums.hfex       class accumulators (optional)
//! selection.hfex    distillation selection (optional, format v2+)
//! ```
//!
//! Every file is laid out as
//!
//! ```text
//! magic "HFEXSNAP" (8 bytes) | version u32 LE |
//!   section*:  tag (4 bytes) | payload_len u64 LE | payload | crc32 u32 LE
//! ```
//!
//! The CRC32 (IEEE polynomial, the checksum zlib and PNG use) covers each
//! section payload on its own, so a reader can report *which* section a
//! bit flip landed in. Truncation is caught by the length prefixes (a
//! payload that runs past the end of the file is a typed
//! [`ServeError::Corrupt`], never a panic) and header clobbering by the
//! magic and version checks.
//!
//! A v3 shard file is a `META` section (dim, shard index) followed by row
//! batches, each a `LABL` + `BANK` section pair holding the batch's labels
//! and packed rows. A v1/v2 shard (whose `META` also held its row count
//! and the snapshot's shard count) is the one-batch case of the same
//! reader. The manifest's `MANI` section holds a generation, the dim, the
//! configured shard capacity, the shard-index space, the length and CRC of
//! the accumulator and selection payloads it commits (the accumulator
//! pin's flag can ask `open` to rebuild them from the rows), and one entry
//! per shard: its file, its committed row count and byte length, and
//! whether an earlier recovery lost it.
//!
//! A `Commit` appends a batch past a shard's committed length, or stages
//! a whole file (a new or rewritten shard, a sidecar) in a `.tmp` sibling.
//! `Commit::publish` then fsyncs every file it wrote, renames the staged
//! files into place (fsyncing the directory when a shard file is new),
//! writes the manifest via tmp + fsync + rename and fsyncs the directory.
//! Until that last rename the previous manifest is live, and a commit never
//! changes a byte it references, except the sidecars, whose pins say
//! whether they belong to it. So once a commit returns its data is durable
//! on a device that honours fsync, and a crash at any point leaves the
//! previous commit readable. `Commit` is the only writer. The
//! `serve/snapshot_write` failpoint fires before each file a commit writes
//! and before the manifest rename; `serve/snapshot_load` arms the shard
//! and sidecar readers.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use hyperfex_hdc::binary::Dim;
use hyperfex_hdc::classify::ClassAccumulators;
use hyperfex_hdc::distill::BitSelection;
use hyperfex_hdc::{failpoint, BitMatrix};

use crate::error::ServeError;

/// Leading bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"HFEXSNAP";
/// Newest format version this build reads and writes.
///
/// Version 2 added the optional distillation-selection file
/// ([`SELECTION_FILE_NAME`]); version 3 made shard files append-only
/// batches and added the manifest ([`MANIFEST_FILE_NAME`]). Readers accept
/// [`MIN_VERSION`]`..=`[`VERSION`], so v1 and v2 snapshots still open.
pub const VERSION: u32 = 3;
/// Oldest format version this build still reads.
pub const MIN_VERSION: u32 = 1;
/// Each file kind is stamped with the version that introduced its layout:
/// the accumulator file is unchanged since v1 and the selection file since
/// v2; shards and the manifest carry [`VERSION`].
const ACCUMS_VERSION: u32 = 1;
const SELECTION_VERSION: u32 = 2;

const TAG_META: [u8; 4] = *b"META";
const TAG_LABELS: [u8; 4] = *b"LABL";
const TAG_BANK: [u8; 4] = *b"BANK";
const TAG_ACCUMS: [u8; 4] = *b"ACCU";
const TAG_SELECTION: [u8; 4] = *b"BSEL";
const TAG_MANIFEST: [u8; 4] = *b"MANI";

/// File name of shard `index` inside a snapshot directory.
#[must_use]
pub fn shard_file_name(index: u32) -> String {
    format!("shard-{index:04}.hfex")
}

/// File name of the optional class-accumulator file.
pub const ACCUMS_FILE_NAME: &str = "accums.hfex";

/// File name of the optional distillation-selection file (format v2+).
pub const SELECTION_FILE_NAME: &str = "selection.hfex";

/// File name of the manifest, the commit point of a v3 snapshot.
pub const MANIFEST_FILE_NAME: &str = "manifest.hfex";

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected), slicing-by-8, tables built at
// compile time.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][i]` is
/// the CRC state after feeding byte `i` followed by `k` zero bytes, which
/// lets [`Crc32::update`] fold eight input bytes with eight independent
/// lookups instead of eight dependent bytewise steps.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        // lint: cast-ok (i < 256 fits u32)
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            j += 1;
        }
        // lint: index-ok (i < 256, the table length, by the loop bound)
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            // lint: index-ok (k < 8 tables and i < 256 entries by the loop bounds)
            let prev = tables[k - 1][i];
            // lint: cast-ok (masked to 8 bits, fits usize)
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// A running CRC32 (IEEE), so a section can be checksummed while its
/// payload streams to disk. Feeding bytes in any split gives the same
/// checksum as one [`crc32`] call over their concatenation.
#[derive(Debug, Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    const fn new() -> Self {
        Self(u32::MAX)
    }

    /// Folds `bytes` into the state: slicing-by-8 over whole 8-byte
    /// blocks, then bytewise over the remainder.
    // lint: index-ok (blocks have exactly 8 bytes; every table index is a u8 widened to usize, < 256; table numbers are < 8)
    fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(8);
        for block in &mut blocks {
            let c = crc.to_le_bytes();
            crc = CRC_TABLES[7][usize::from(block[0] ^ c[0])]
                ^ CRC_TABLES[6][usize::from(block[1] ^ c[1])]
                ^ CRC_TABLES[5][usize::from(block[2] ^ c[2])]
                ^ CRC_TABLES[4][usize::from(block[3] ^ c[3])]
                ^ CRC_TABLES[3][usize::from(block[4])]
                ^ CRC_TABLES[2][usize::from(block[5])]
                ^ CRC_TABLES[1][usize::from(block[6])]
                ^ CRC_TABLES[0][usize::from(block[7])];
        }
        for &b in blocks.remainder() {
            crc = CRC_TABLES[0][usize::from(b ^ crc.to_le_bytes()[0])] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    const fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC32 (IEEE) of `bytes` — the per-section checksum of the format.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Bytes of little-endian payload encoded per write: large enough that
/// each chunk bypasses the `BufWriter` buffer, small enough to stay in
/// cache while it is checksummed and written.
const CHUNK_BYTES: usize = 64 * 1024;

/// Streams sections into a file, checksumming each payload as it is
/// written, so no whole-file buffer is built.
struct FileWriter {
    out: BufWriter<File>,
    /// Encoding buffer for little-endian integer payloads.
    chunk: Vec<u8>,
    crc: Crc32,
    /// Payload length of the open section.
    section_len: usize,
    /// Payload bytes the open section still expects.
    remaining: usize,
    /// Bytes written so far.
    written: u64,
}

impl FileWriter {
    fn new(file: File) -> Self {
        Self {
            out: BufWriter::new(file),
            chunk: vec![0u8; CHUNK_BYTES],
            crc: Crc32::new(),
            section_len: 0,
            remaining: 0,
            written: 0,
        }
    }

    fn raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.out.write_all(bytes)?;
        // lint: cast-ok (usize -> u64 widening on 64-bit targets)
        self.written += bytes.len() as u64;
        Ok(())
    }

    /// Writes the file header: magic and format version.
    fn header(&mut self, version: u32) -> io::Result<()> {
        self.raw(&MAGIC)?;
        self.raw(&version.to_le_bytes())
    }

    /// Writes a section's tag and payload length; the payload follows via
    /// [`FileWriter::put_le`], then [`FileWriter::end_section`].
    fn begin_section(&mut self, tag: [u8; 4], payload_len: usize) -> io::Result<()> {
        self.raw(&tag)?;
        // lint: cast-ok (usize -> u64 widening on 64-bit targets)
        self.raw(&(payload_len as u64).to_le_bytes())?;
        self.crc = Crc32::new();
        self.section_len = payload_len;
        self.remaining = payload_len;
        Ok(())
    }

    /// Appends raw payload bytes to the open section.
    fn put_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.remaining = self
            .remaining
            .checked_sub(bytes.len())
            .ok_or_else(|| io::Error::other("section payload overruns its length"))?;
        self.crc.update(bytes);
        self.raw(bytes)
    }

    /// Appends `values` to the open section's payload as `N`-byte
    /// little-endian integers, encoded a chunk at a time.
    fn put_le<T: Copy, const N: usize>(
        &mut self,
        values: &[T],
        to_le: fn(T) -> [u8; N],
    ) -> io::Result<()> {
        let mut chunk = std::mem::take(&mut self.chunk);
        let mut result = Ok(());
        for group in values.chunks(CHUNK_BYTES / N) {
            for (dst, &value) in chunk.chunks_exact_mut(N).zip(group) {
                dst.copy_from_slice(&to_le(value));
            }
            let used = chunk.get(..group.len() * N).unwrap_or_default();
            result = self.put_bytes(used);
            if result.is_err() {
                break;
            }
        }
        self.chunk = chunk;
        result
    }

    /// Closes the open section with the CRC32 of its payload; returns the
    /// section's pin. Fails if the payload fell short of its declared
    /// length.
    fn end_section(&mut self) -> io::Result<SidecarPin> {
        if self.remaining != 0 {
            return Err(io::Error::other(format!(
                "section payload is {} bytes short of its length",
                self.remaining
            )));
        }
        let crc = self.crc.finish();
        self.raw(&crc.to_le_bytes())?;
        Ok(SidecarPin {
            // lint: cast-ok (usize -> u64 widening on 64-bit targets)
            payload_len: self.section_len as u64,
            crc,
        })
    }

    /// Writes one row batch: a `LABL` section and a `BANK` section.
    fn batch(&mut self, labels: &[u32], words: &[u64]) -> io::Result<()> {
        self.begin_section(TAG_LABELS, labels.len() * 4)?;
        self.put_le(labels, u32::to_le_bytes)?;
        self.end_section()?;
        self.begin_section(TAG_BANK, words.len() * 8)?;
        self.put_le(words, u64::to_le_bytes)?;
        self.end_section()?;
        Ok(())
    }

    /// Flushes the buffer and hands back the file, still open and unsynced.
    fn into_file(self) -> io::Result<File> {
        self.out
            .into_inner()
            .map_err(io::IntoInnerError::into_error)
    }
}

/// The single arm site of the `serve/snapshot_load` seam; every reader
/// routes through it so chaos plans see one evaluation per file read.
fn check_load_seam() -> Result<(), ServeError> {
    failpoint::check("serve/snapshot_load")?;
    Ok(())
}

/// The single arm site of the `serve/snapshot_write` seam, evaluated before
/// each file a write or commit produces, so a chaos plan can crash a
/// commit between any two of its writes.
fn check_write_seam() -> Result<(), ServeError> {
    failpoint::check("serve/snapshot_write")?;
    Ok(())
}

/// `path` with `.tmp` appended.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Streams a whole file into `path`'s `.tmp` sibling: the header, then
/// whatever `encode` writes. Returns the open, unsynced temp file, its path
/// and what `encode` returned.
fn stage<T>(
    path: &Path,
    version: u32,
    encode: impl FnOnce(&mut FileWriter) -> io::Result<T>,
) -> Result<(File, PathBuf, T), ServeError> {
    let tmp = tmp_path(path);
    let staged = File::create(&tmp).and_then(|file| {
        let mut writer = FileWriter::new(file);
        writer.header(version)?;
        let value = encode(&mut writer)?;
        Ok((writer.into_file()?, value))
    });
    match staged {
        Ok((file, value)) => Ok((file, tmp, value)),
        Err(e) => {
            // Best-effort cleanup; a leftover temp file is inert.
            drop(fs::remove_file(&tmp));
            Err(ServeError::io(&tmp, &e))
        }
    }
}

/// Fsyncs a directory, making the renames inside it durable.
fn sync_dir(dir: &Path) -> Result<(), ServeError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| ServeError::io(dir, &e))
}

/// One shard of a store: its index, the labels of its rows, and the packed
/// hypervector bank itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// This shard's index in the store's shard-index space.
    pub shard_index: u32,
    /// Per-row class labels (`labels.len() == bank.n_rows()`).
    pub labels: Vec<u32>,
    /// The packed `n_rows x dim` hypervector bank.
    pub bank: BitMatrix,
}

impl ShardRecord {
    /// Fails unless every bank row has exactly one label.
    fn check_arity(&self) -> Result<(), ServeError> {
        if self.labels.len() == self.bank.n_rows() {
            return Ok(());
        }
        Err(ServeError::ShardConflict {
            detail: format!(
                "shard {} has {} labels for {} bank rows",
                self.shard_index,
                self.labels.len(),
                self.bank.n_rows()
            ),
        })
    }

    /// The labels and packed words of `rows`, or `None` when out of range.
    fn rows(&self, rows: Range<usize>) -> Option<(&[u32], &[u64])> {
        let per_row = self.bank.words_per_row();
        let words = self
            .bank
            .raw_words()
            .get(rows.start.checked_mul(per_row)?..rows.end.checked_mul(per_row)?)?;
        Some((self.labels.get(rows)?, words))
    }
}

/// Writes a v3 shard file holding every row of `shard` as one batch.
fn encode_shard(file: &mut FileWriter, shard: &ShardRecord) -> io::Result<()> {
    // lint: cast-ok (usize -> u64 widening on 64-bit targets)
    let dim = shard.bank.dim().get() as u64;
    file.begin_section(TAG_META, 12)?;
    file.put_le(&[dim], u64::to_le_bytes)?;
    file.put_le(&[shard.shard_index], u32::to_le_bytes)?;
    file.end_section()?;
    file.batch(&shard.labels, shard.bank.raw_words())
}

/// How a manifest pins a sidecar file: the length and CRC32 of the
/// payload of its one section. A sidecar whose payload differs from its
/// pin is not the one the manifest committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SidecarPin {
    /// Payload length in bytes.
    pub payload_len: u64,
    /// CRC32 of the payload, as stored after it.
    pub crc: u32,
}

/// Encodes the accumulator file's one section; returns its pin.
fn encode_accums(file: &mut FileWriter, accums: &ClassAccumulators) -> io::Result<SidecarPin> {
    let (ones, totals) = accums.parts();
    let dim = accums.dim().get();
    // lint: cast-ok (usize -> u64 widening on 64-bit targets)
    let sizes = [dim as u64, totals.len() as u64];
    let payload_len = 16 + totals.len() * 4 + ones.len() * dim * 4;
    file.begin_section(TAG_ACCUMS, payload_len)?;
    file.put_le(&sizes, u64::to_le_bytes)?;
    file.put_le(totals, i32::to_le_bytes)?;
    for class_ones in ones {
        file.put_le(class_ones, i32::to_le_bytes)?;
    }
    file.end_section()
}

/// Encodes the selection file's one section; returns its pin.
fn encode_selection(file: &mut FileWriter, selection: &BitSelection) -> io::Result<SidecarPin> {
    let indices = selection.indices();
    // lint: cast-ok (usize -> u64 widening on 64-bit targets)
    let sizes = [selection.source_dim().get() as u64, indices.len() as u64];
    file.begin_section(TAG_SELECTION, 16 + indices.len() * 4)?;
    file.put_le(&sizes, u64::to_le_bytes)?;
    file.put_le(indices, u32::to_le_bytes)?;
    file.end_section()
}

// ---------------------------------------------------------------------------
// The manifest.
// ---------------------------------------------------------------------------

/// One shard a manifest names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// The shard's index.
    pub shard_index: u32,
    /// Which file holds it: 0 names `shard-NNNN.hfex`, any other value `G`
    /// names `shard-NNNN-gG.hfex`.
    pub file_tag: u64,
    /// Committed row count.
    pub rows: u64,
    /// Committed byte length of the file: the header and every committed
    /// batch. Bytes past it belong to no commit.
    pub bytes: u64,
    /// Whether an earlier recovery quarantined this shard. A lost shard
    /// stays named so its index is never reused and later recoveries
    /// still account for it; its file is never read.
    pub lost: bool,
}

impl ShardEntry {
    /// The name of the file this entry refers to.
    #[must_use]
    pub fn file_name(&self) -> String {
        if self.file_tag == 0 {
            shard_file_name(self.shard_index)
        } else {
            format!("shard-{:04}-g{}.hfex", self.shard_index, self.file_tag)
        }
    }
}

/// The commit point of a v3 snapshot: everything the last commit made
/// durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Commit counter of the directory, 1 for its first commit.
    pub generation: u64,
    /// Dimensionality of every shard.
    pub dim: Dim,
    /// Row count at which appends roll a new shard.
    pub shard_capacity: u64,
    /// Size of the shard-index space: one past the highest index used.
    pub n_shards: u32,
    /// The committed accumulator file, when the store has accumulators.
    pub accums: Option<SidecarPin>,
    /// Whether the committed accumulators may not count exactly the rows
    /// this manifest commits, because the committing store carried the
    /// file or a shard forward unread; `open` then rebuilds them from the
    /// kept rows even when the class totals agree.
    pub rebuild_accums: bool,
    /// The committed selection file, when the store has a selection.
    pub selection: Option<SidecarPin>,
    /// One entry per shard, by ascending index.
    pub shards: Vec<ShardEntry>,
}

/// Bytes of the manifest payload before its entries: generation, dim,
/// shard capacity, index space, two sidecar pins and the entry count.
const MANIFEST_FIXED_BYTES: usize = 72;
/// Bytes of one manifest entry: index, flags, file tag, rows and bytes.
const MANIFEST_ENTRY_BYTES: usize = 32;

impl Manifest {
    /// The entry of shard `index`, if the manifest names it.
    #[must_use]
    pub fn entry(&self, index: u32) -> Option<&ShardEntry> {
        self.shards
            .binary_search_by_key(&index, |e| e.shard_index)
            .ok()
            .and_then(|at| self.shards.get(at))
    }

    fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(MANIFEST_FIXED_BYTES + self.shards.len() * MANIFEST_ENTRY_BYTES);
        out.extend_from_slice(&self.generation.to_le_bytes());
        // lint: cast-ok (usize -> u64 widening on 64-bit targets)
        out.extend_from_slice(&(self.dim.get() as u64).to_le_bytes());
        out.extend_from_slice(&self.shard_capacity.to_le_bytes());
        out.extend_from_slice(&u64::from(self.n_shards).to_le_bytes());
        // Pin flags: 0 absent, 1 present, 2 present and to be rebuilt.
        for (pin, rebuild) in [(self.accums, self.rebuild_accums), (self.selection, false)] {
            let SidecarPin { payload_len, crc } = pin.unwrap_or(SidecarPin {
                payload_len: 0,
                crc: 0,
            });
            let flag = match pin {
                None => 0u32,
                Some(_) if rebuild => 2,
                Some(_) => 1,
            };
            out.extend_from_slice(&flag.to_le_bytes());
            out.extend_from_slice(&crc.to_le_bytes());
            out.extend_from_slice(&payload_len.to_le_bytes());
        }
        // lint: cast-ok (usize -> u64 widening on 64-bit targets)
        out.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        for entry in &self.shards {
            out.extend_from_slice(&entry.shard_index.to_le_bytes());
            out.extend_from_slice(&u32::from(entry.lost).to_le_bytes());
            out.extend_from_slice(&entry.file_tag.to_le_bytes());
            out.extend_from_slice(&entry.rows.to_le_bytes());
            out.extend_from_slice(&entry.bytes.to_le_bytes());
        }
        out
    }

    fn decode(path: &Path, payload: &[u8]) -> Result<Self, ServeError> {
        let mut inner = Cursor::new(payload, path);
        let corrupt = |detail: String| ServeError::Corrupt {
            path: path.display().to_string(),
            section: "manifest",
            detail,
        };
        let generation = inner.take_u64("manifest")?;
        let dim_raw = inner.take_u64("manifest")?;
        let dim = usize::try_from(dim_raw)
            .ok()
            .and_then(|d| Dim::try_new(d).ok())
            .ok_or_else(|| corrupt(format!("impossible dimensionality {dim_raw}")))?;
        let shard_capacity = inner.take_u64("manifest")?;
        if shard_capacity == 0 || usize::try_from(shard_capacity).is_err() {
            return Err(corrupt(format!(
                "impossible shard capacity {shard_capacity}"
            )));
        }
        let n_shards_raw = inner.take_u64("manifest")?;
        let n_shards = u32::try_from(n_shards_raw)
            .map_err(|_| corrupt(format!("impossible shard count {n_shards_raw}")))?;
        // Only the accumulator pin may ask for a rebuild.
        let mut pins = [(None, false), (None, false)];
        for (pin, max_flag) in pins.iter_mut().zip([2, 1]) {
            let flag = inner.take_u32("manifest")?;
            let crc = inner.take_u32("manifest")?;
            let payload_len = inner.take_u64("manifest")?;
            *pin = match flag {
                0 if crc == 0 && payload_len == 0 => (None, false),
                1..=2 if flag <= max_flag => (Some(SidecarPin { payload_len, crc }), flag == 2),
                _ => return Err(corrupt(format!("bad sidecar pin flag {flag}"))),
            };
        }
        let [(accums, rebuild_accums), (selection, _)] = pins;
        let count_raw = inner.take_u64("manifest")?;
        // Checked: a corrupt count must become a typed error, and the
        // entry loop below is bounded by the payload actually read.
        let expected = usize::try_from(count_raw)
            .ok()
            .and_then(|n| n.checked_mul(MANIFEST_ENTRY_BYTES))
            .and_then(|body| body.checked_add(MANIFEST_FIXED_BYTES));
        if expected != Some(payload.len()) {
            return Err(corrupt(format!(
                "manifest payload has {} bytes for a claimed {count_raw} entries",
                payload.len()
            )));
        }
        let count = (payload.len() - MANIFEST_FIXED_BYTES) / MANIFEST_ENTRY_BYTES;
        let mut shards: Vec<ShardEntry> = Vec::with_capacity(count);
        for _ in 0..count {
            let shard_index = inner.take_u32("manifest")?;
            let flags = inner.take_u32("manifest")?;
            let entry = ShardEntry {
                shard_index,
                lost: flags == 1,
                file_tag: inner.take_u64("manifest")?,
                rows: inner.take_u64("manifest")?,
                bytes: inner.take_u64("manifest")?,
            };
            if flags > 1 {
                return Err(corrupt(format!("bad flags {flags} on shard {shard_index}")));
            }
            if shard_index >= n_shards
                || shards.last().is_some_and(|p| p.shard_index >= shard_index)
            {
                return Err(corrupt(format!(
                    "shard index {shard_index} out of order or outside {n_shards} shards"
                )));
            }
            shards.push(entry);
        }
        inner.expect_exhausted()?;
        Ok(Self {
            generation,
            dim,
            shard_capacity,
            n_shards,
            accums,
            rebuild_accums,
            selection,
            shards,
        })
    }
}

/// Reads the manifest of `dir`: `Ok(None)` when the directory has none (a
/// v1/v2 snapshot, or one whose first commit never finished).
pub fn read_manifest(dir: &Path) -> Result<Option<Manifest>, ServeError> {
    let path = dir.join(MANIFEST_FILE_NAME);
    let file = match File::open(&path) {
        Ok(file) => file,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ServeError::io(&path, &e)),
    };
    let (mut reader, _) = FileReader::open(&path, file, None)?;
    let (payload, _) = reader.section(TAG_MANIFEST, "manifest")?;
    reader.expect_end()?;
    Manifest::decode(&path, &payload).map(Some)
}

// ---------------------------------------------------------------------------
// Commits.
// ---------------------------------------------------------------------------

/// A whole file staged in its `.tmp` sibling, renamed into place when the
/// commit publishes.
#[derive(Debug)]
struct Staged {
    file: File,
    tmp: PathBuf,
    path: PathBuf,
    /// Whether the file is a shard, whose directory entry must be durable
    /// before a manifest names it.
    shard: bool,
}

/// One commit into a snapshot directory: the files it wrote, made durable
/// together before its manifest lands (see the module docs).
///
/// Dropping a commit without [`Commit::publish`] leaves the previous
/// manifest live; what the commit wrote is past every committed length or
/// in files that manifest does not name.
#[derive(Debug)]
pub(crate) struct Commit<'d> {
    dir: &'d Path,
    /// Shard files that took an appended batch.
    appended: Vec<File>,
    staged: Vec<Staged>,
}

impl<'d> Commit<'d> {
    /// Starts a commit into `dir`, which must exist.
    #[must_use]
    pub(crate) fn new(dir: &'d Path) -> Self {
        Self {
            dir,
            appended: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Appends `rows` of `shard` as one batch to the shard file `name`,
    /// whose committed length is `committed` bytes; a torn tail past that
    /// length (left by a commit that never published) is cut first.
    /// Returns the file's new length.
    pub(crate) fn append_rows(
        &mut self,
        name: &str,
        committed: u64,
        shard: &ShardRecord,
        rows: Range<usize>,
    ) -> Result<u64, ServeError> {
        check_write_seam()?;
        shard.check_arity()?;
        let (labels, words) = shard.rows(rows).ok_or_else(|| ServeError::ShardConflict {
            detail: format!("append past the rows of shard {}", shard.shard_index),
        })?;
        let path = self.dir.join(name);
        let appended = (|| {
            let mut file = OpenOptions::new().write(true).open(&path)?;
            let len = file.metadata()?.len();
            if len < committed {
                return Err(io::Error::other(format!(
                    "file has {len} bytes, fewer than its {committed} committed"
                )));
            }
            if len > committed {
                file.set_len(committed)?;
            }
            file.seek(SeekFrom::Start(committed))?;
            let mut writer = FileWriter::new(file);
            writer.batch(labels, words)?;
            let added = writer.written;
            Ok((writer.into_file()?, added))
        })();
        let (file, added) = appended.map_err(|e| ServeError::io(&path, &e))?;
        self.appended.push(file);
        Ok(committed + added)
    }

    /// Stages a whole file `name` in its `.tmp` sibling; returns what
    /// `encode` returned.
    fn stage<T>(
        &mut self,
        name: &str,
        version: u32,
        shard: bool,
        encode: impl FnOnce(&mut FileWriter) -> io::Result<T>,
    ) -> Result<T, ServeError> {
        check_write_seam()?;
        let path = self.dir.join(name);
        let (file, tmp, value) = stage(&path, version, encode)?;
        self.staged.push(Staged {
            file,
            tmp,
            path,
            shard,
        });
        Ok(value)
    }

    /// Stages `shard` as a whole v3 file (one batch) under `name`. Returns
    /// the file's length.
    pub(crate) fn write_shard(
        &mut self,
        name: &str,
        shard: &ShardRecord,
    ) -> Result<u64, ServeError> {
        shard.check_arity()?;
        self.stage(name, VERSION, true, |file| {
            encode_shard(file, shard)?;
            Ok(file.written)
        })
    }

    /// Stages the accumulator file; returns its pin.
    pub(crate) fn write_accums(
        &mut self,
        accums: &ClassAccumulators,
    ) -> Result<SidecarPin, ServeError> {
        self.stage(ACCUMS_FILE_NAME, ACCUMS_VERSION, false, |file| {
            encode_accums(file, accums)
        })
    }

    /// Stages the selection file; returns its pin.
    pub(crate) fn write_selection(
        &mut self,
        selection: &BitSelection,
    ) -> Result<SidecarPin, ServeError> {
        self.stage(SELECTION_FILE_NAME, SELECTION_VERSION, false, |file| {
            encode_selection(file, selection)
        })
    }

    /// Makes everything the commit wrote durable, then `manifest` the live
    /// one: fsync the appended and staged files and the manifest's temp
    /// file, rename the staged files into place (fsyncing the directory
    /// when a shard file is new), rename the manifest and fsync the
    /// directory. The fsyncs are timed under the `serve/snapshot_fsync`
    /// span.
    ///
    /// Sidecar renames need no directory fsync of their own: if one is
    /// lost, the manifest's pin tells `open` the file on disk is not the
    /// committed one.
    pub(crate) fn publish(self, manifest: &Manifest) -> Result<(), ServeError> {
        check_write_seam()?;
        let path = self.dir.join(MANIFEST_FILE_NAME);
        let payload = manifest.encode();
        let (file, tmp, _) = stage(&path, VERSION, |file| {
            file.begin_section(TAG_MANIFEST, payload.len())?;
            file.put_bytes(&payload)?;
            file.end_section()
        })?;
        let _span = crate::obs::span("serve/snapshot_fsync");
        for file in &self.appended {
            file.sync_data().map_err(|e| ServeError::io(self.dir, &e))?;
        }
        for staged in &self.staged {
            staged
                .file
                .sync_data()
                .map_err(|e| ServeError::io(&staged.tmp, &e))?;
        }
        file.sync_data().map_err(|e| ServeError::io(&tmp, &e))?;
        for staged in &self.staged {
            fs::rename(&staged.tmp, &staged.path).map_err(|e| ServeError::io(&staged.path, &e))?;
        }
        if self.staged.iter().any(|s| s.shard) {
            sync_dir(self.dir)?;
        }
        check_write_seam()?;
        fs::rename(&tmp, &path).map_err(|e| ServeError::io(&path, &e))?;
        sync_dir(self.dir)
    }
}

/// Test fixtures: a whole file streamed through the staging path a commit
/// uses and moved into place, with no manifest and no fsync.
#[cfg(test)]
fn place<T>(
    path: &Path,
    version: u32,
    encode: impl FnOnce(&mut FileWriter) -> io::Result<T>,
) -> Result<(), ServeError> {
    let (_, tmp, _) = stage(path, version, encode)?;
    fs::rename(&tmp, path).map_err(|e| ServeError::io(path, &e))
}

/// Writes `shard` as a whole v3 shard file (one batch) at `path`.
#[cfg(test)]
pub(crate) fn write_shard(path: &Path, shard: &ShardRecord) -> Result<(), ServeError> {
    place(path, VERSION, |file| encode_shard(file, shard))
}

/// Writes an accumulator file at `path`.
#[cfg(test)]
pub(crate) fn write_accums(path: &Path, accums: &ClassAccumulators) -> Result<(), ServeError> {
    place(path, ACCUMS_VERSION, |file| encode_accums(file, accums))
}

/// Writes a selection file at `path`.
#[cfg(test)]
pub(crate) fn write_selection(path: &Path, selection: &BitSelection) -> Result<(), ServeError> {
    place(path, SELECTION_VERSION, |file| {
        encode_selection(file, selection)
    })
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// A bounds-checked reader over a section payload: every read is a typed
/// corruption error when it would run past the end.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], path: &'a Path) -> Self {
        Self {
            bytes,
            pos: 0,
            path,
        }
    }

    fn corrupt(&self, section: &'static str, detail: String) -> ServeError {
        ServeError::Corrupt {
            path: self.path.display().to_string(),
            section,
            detail,
        }
    }

    fn take(&mut self, n: usize, section: &'static str) -> Result<&'a [u8], ServeError> {
        let end = self.pos.checked_add(n).ok_or_else(|| {
            self.corrupt(
                section,
                format!("impossible length {n} at offset {}", self.pos),
            )
        })?;
        let slice = self.bytes.get(self.pos..end).ok_or_else(|| {
            self.corrupt(
                section,
                format!(
                    "truncated: needed {n} bytes at offset {}, file has {}",
                    self.pos,
                    self.bytes.len()
                ),
            )
        })?;
        self.pos = end;
        Ok(slice)
    }

    fn take_u32(&mut self, section: &'static str) -> Result<u32, ServeError> {
        let raw = self.take(4, section)?;
        let arr: [u8; 4] = raw
            .try_into()
            .map_err(|_| self.corrupt(section, "u32 read".to_string()))?;
        Ok(u32::from_le_bytes(arr))
    }

    fn take_u64(&mut self, section: &'static str) -> Result<u64, ServeError> {
        let raw = self.take(8, section)?;
        let arr: [u8; 8] = raw
            .try_into()
            .map_err(|_| self.corrupt(section, "u64 read".to_string()))?;
        Ok(u64::from_le_bytes(arr))
    }

    fn expect_exhausted(&self) -> Result<(), ServeError> {
        if self.pos != self.bytes.len() {
            return Err(self.corrupt(
                "trailer",
                format!(
                    "{} trailing bytes after the final section",
                    self.bytes.len() - self.pos
                ),
            ));
        }
        Ok(())
    }
}

/// Reads a snapshot file section by section — a shard straight into its
/// label and word vectors, so no whole-file buffer is built. Every read is
/// bounded by the file's length (or its committed length): a length that
/// runs past it is a typed corruption error before anything is allocated
/// for it.
struct FileReader<'p> {
    inner: io::BufReader<io::Take<File>>,
    path: &'p Path,
    /// Bytes read so far.
    pos: u64,
    /// Bytes this reader may consume.
    len: u64,
    /// Running CRC of the open section's payload.
    crc: Crc32,
    /// Payload bytes are read through this buffer, a chunk at a time.
    chunk: Vec<u8>,
}

impl<'p> FileReader<'p> {
    /// Checks the header of `file`, read up to `committed` bytes (all of it
    /// when `None`); returns the reader, positioned at the first section,
    /// and the format version.
    fn open(path: &'p Path, file: File, committed: Option<u64>) -> Result<(Self, u32), ServeError> {
        let on_disk = file.metadata().map_err(|e| ServeError::io(path, &e))?.len();
        let len = committed.unwrap_or(on_disk);
        let mut reader = Self {
            inner: io::BufReader::new(file.take(len)),
            path,
            pos: 0,
            len,
            crc: Crc32::new(),
            chunk: Vec::new(),
        };
        if on_disk < len {
            return Err(reader.corrupt(
                "header",
                format!("truncated: {on_disk} bytes on disk, {len} committed"),
            ));
        }
        let mut magic = [0u8; 8];
        if reader.fill(&mut magic, "header").is_err() || magic != MAGIC {
            return Err(ServeError::BadMagic {
                path: path.display().to_string(),
            });
        }
        let version = reader.u32("header")?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(ServeError::UnsupportedVersion {
                path: path.display().to_string(),
                found: version,
                supported: VERSION,
            });
        }
        Ok((reader, version))
    }

    fn corrupt(&self, section: &'static str, detail: String) -> ServeError {
        ServeError::Corrupt {
            path: self.path.display().to_string(),
            section,
            detail,
        }
    }

    fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// Fills `buf` from the file, folding it into the running CRC.
    fn fill(&mut self, buf: &mut [u8], section: &'static str) -> Result<(), ServeError> {
        // lint: cast-ok (usize -> u64 widening on 64-bit targets)
        let n = buf.len() as u64;
        if n > self.remaining() {
            return Err(self.corrupt(
                section,
                format!(
                    "truncated: needed {n} bytes at offset {}, file has {}",
                    self.pos, self.len
                ),
            ));
        }
        self.inner
            .read_exact(buf)
            .map_err(|e| ServeError::io(self.path, &e))?;
        self.crc.update(buf);
        self.pos += n;
        Ok(())
    }

    fn u32(&mut self, section: &'static str) -> Result<u32, ServeError> {
        let mut bytes = [0u8; 4];
        self.fill(&mut bytes, section)?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// Reads a section's length, after its tag; checks that the payload and
    /// its CRC fit in what is left.
    fn section_len(&mut self, section: &'static str) -> Result<usize, ServeError> {
        let mut bytes = [0u8; 8];
        self.fill(&mut bytes, section)?;
        let len = u64::from_le_bytes(bytes);
        if len.checked_add(4).is_none_or(|end| end > self.remaining()) {
            return Err(self.corrupt(
                section,
                format!(
                    "truncated: a {len}-byte payload at offset {}, file has {}",
                    self.pos, self.len
                ),
            ));
        }
        self.crc = Crc32::new();
        usize::try_from(len)
            .map_err(|_| self.corrupt(section, format!("impossible section length {len}")))
    }

    /// Reads a section's tag, which must be `tag`, and its length.
    fn begin(&mut self, tag: [u8; 4], section: &'static str) -> Result<usize, ServeError> {
        let mut found = [0u8; 4];
        self.fill(&mut found, section)?;
        if found != tag {
            return Err(self.corrupt(
                section,
                format!("expected section tag {tag:?}, found {found:?}"),
            ));
        }
        self.section_len(section)
    }

    /// Streams a `len`-byte payload through `sink` a chunk at a time (each
    /// chunk but the last a multiple of 8 bytes), then checks its CRC,
    /// which it returns.
    fn payload(
        &mut self,
        len: usize,
        section: &'static str,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<u32, ServeError> {
        let mut chunk = std::mem::take(&mut self.chunk);
        let mut left = len;
        while left > 0 {
            let n = left.min(CHUNK_BYTES);
            chunk.resize(n, 0);
            self.fill(&mut chunk, section)?;
            sink(&chunk);
            left -= n;
        }
        self.chunk = chunk;
        let actual = self.crc.finish();
        let stored = self.u32(section)?;
        if stored != actual {
            return Err(self.corrupt(
                section,
                format!("checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"),
            ));
        }
        Ok(actual)
    }

    /// Reads one `LABL` + `BANK` batch whose `LABL` tag was just read,
    /// appending its labels and words; returns its row count. `claimed` is
    /// the row count a v1/v2 header recorded for its one batch.
    fn batch(
        &mut self,
        dim: Dim,
        claimed: Option<usize>,
        labels: &mut Vec<u32>,
        words: &mut Vec<u64>,
    ) -> Result<usize, ServeError> {
        let labels_len = self.section_len("labels")?;
        let rows = labels_len / 4;
        if labels_len % 4 != 0 || claimed.is_some_and(|n| n != rows) {
            let claim = claimed.map_or(String::new(), |n| format!(" for a claimed {n} rows"));
            return Err(self.corrupt(
                "labels",
                format!("label section has {labels_len} bytes{claim}"),
            ));
        }
        labels.reserve(rows);
        // Chunks hold whole 4-byte labels and 8-byte words, so the
        // conversions never fall back to zero.
        self.payload(labels_len, "labels", |bytes| {
            labels.extend(
                bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap_or([0; 4]))),
            );
        })?;
        let bank_len = self.begin(TAG_BANK, "bank")?;
        // Checked arithmetic: the sizes are corruption controlled.
        let expected = rows.checked_mul(dim.words()).and_then(|w| w.checked_mul(8));
        if expected != Some(bank_len) {
            return Err(self.corrupt(
                "bank",
                format!(
                    "bank section has {bank_len} bytes for {rows} rows x {} words",
                    dim.words()
                ),
            ));
        }
        words.reserve(bank_len / 8);
        self.payload(bank_len, "bank", |bytes| {
            words.extend(
                bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap_or([0; 8]))),
            );
        })?;
        Ok(rows)
    }

    /// Reads a whole section, which must be tagged `tag`; returns its
    /// payload and pin.
    fn section(
        &mut self,
        tag: [u8; 4],
        section: &'static str,
    ) -> Result<(Vec<u8>, SidecarPin), ServeError> {
        let len = self.begin(tag, section)?;
        let mut payload = Vec::with_capacity(len);
        let crc = self.payload(len, section, |bytes| payload.extend_from_slice(bytes))?;
        let pin = SidecarPin {
            // lint: cast-ok (usize -> u64 widening on 64-bit targets)
            payload_len: len as u64,
            crc,
        };
        Ok((payload, pin))
    }

    /// The error for bytes left after the last section.
    fn trailing(&self, extra: u64) -> ServeError {
        self.corrupt(
            "trailer",
            format!(
                "{} trailing bytes after the final section",
                self.remaining() + extra
            ),
        )
    }

    /// Fails unless every byte has been read.
    fn expect_end(&self) -> Result<(), ServeError> {
        if self.remaining() > 0 {
            return Err(self.trailing(0));
        }
        Ok(())
    }
}

/// A parsed shard file, and the shard count its header claims (v1/v2
/// only; v3 headers record none).
struct ParsedShard {
    shard: ShardRecord,
    claimed_shards: Option<u32>,
}

/// Parses `file`, up to its `committed` length (all of it when `None`),
/// as a shard file of any version: the header, then every batch.
fn parse_shard(path: &Path, file: File, committed: Option<u64>) -> Result<ParsedShard, ServeError> {
    let (mut r, version) = FileReader::open(path, file, committed)?;
    let (meta, _) = r.section(TAG_META, "meta")?;
    let mut meta_cursor = Cursor::new(&meta, path);
    let dim_raw = meta_cursor.take_u64("meta")?;
    let (claimed_rows, shard_index, claimed_shards) = if version < VERSION {
        let n_rows_raw = meta_cursor.take_u64("meta")?;
        let n_rows = usize::try_from(n_rows_raw)
            .map_err(|_| r.corrupt("meta", format!("impossible row count {n_rows_raw}")))?;
        let index = meta_cursor.take_u32("meta")?;
        (Some(n_rows), index, Some(meta_cursor.take_u32("meta")?))
    } else {
        (None, meta_cursor.take_u32("meta")?, None)
    };
    meta_cursor.expect_exhausted().map_err(|_| {
        r.corrupt(
            "meta",
            format!(
                "meta section has {} bytes for version {version}",
                meta.len()
            ),
        )
    })?;
    let dim = usize::try_from(dim_raw)
        .ok()
        .and_then(|d| Dim::try_new(d).ok())
        .ok_or_else(|| r.corrupt("meta", format!("impossible dimensionality {dim_raw}")))?;
    if let Some(n_shards) = claimed_shards.filter(|&n| shard_index >= n) {
        return Err(r.corrupt(
            "meta",
            format!("shard index {shard_index} out of range for {n_shards} shards"),
        ));
    }

    // Size both vectors once for the most rows the rest of the file can
    // hold, so appended batches do not regrow them.
    let row_bytes = dim.words().saturating_mul(8).saturating_add(4);
    let max_rows = usize::try_from(r.remaining()).map_or(0, |left| left / row_bytes);
    let mut labels = Vec::with_capacity(max_rows);
    let mut words = Vec::with_capacity(max_rows * dim.words());
    let mut n_rows = 0usize;
    let mut batches = 0usize;
    while r.remaining() > 0 {
        let mut tag = [0u8; 4];
        if r.remaining() < 4 {
            return Err(r.trailing(0));
        }
        r.fill(&mut tag, "trailer")?;
        // A v1/v2 shard is exactly one batch of its claimed rows.
        if tag != TAG_LABELS || (claimed_rows.is_some() && batches == 1) {
            return Err(r.trailing(4));
        }
        n_rows += r.batch(dim, claimed_rows, &mut labels, &mut words)?;
        batches += 1;
    }
    if claimed_rows.is_some() && batches == 0 {
        return Err(r.corrupt(
            "labels",
            "truncated: the file ends before its one batch".to_string(),
        ));
    }
    let bank =
        BitMatrix::from_words(n_rows, dim, words).map_err(|e| r.corrupt("bank", e.to_string()))?;
    Ok(ParsedShard {
        shard: ShardRecord {
            shard_index,
            labels,
            bank,
        },
        claimed_shards,
    })
}

/// Reads and fully validates one shard file, every batch to its end.
///
/// Any defect — bad magic, unknown version, checksum mismatch, truncated
/// or oversized section, label/bank arity disagreement, a bank row with
/// bits above the dimensionality, bytes after the last batch — is a typed
/// error ([`ServeError::Corrupt`], [`ServeError::BadMagic`] or
/// [`ServeError::UnsupportedVersion`]); the caller
/// ([`crate::store::HvStore::open`]) turns it into a quarantine entry.
pub fn read_shard(path: &Path) -> Result<ShardRecord, ServeError> {
    read_shard_claim(path).map(|(shard, _)| shard)
}

/// [`read_shard`], plus the shard count a v1/v2 header claims.
pub(crate) fn read_shard_claim(path: &Path) -> Result<(ShardRecord, Option<u32>), ServeError> {
    let _span = crate::obs::span("serve/snapshot_load");
    check_load_seam()?;
    let file = File::open(path).map_err(|e| ServeError::io(path, &e))?;
    let parsed = parse_shard(path, file, None)?;
    Ok((parsed.shard, parsed.claimed_shards))
}

/// Reads the committed part of the shard file `path` that `entry` names:
/// its first `entry.bytes` bytes must parse as shard `entry.shard_index`
/// at `dim` with exactly `entry.rows` rows. Bytes past the committed
/// length are not read.
pub(crate) fn read_committed_shard(
    path: &Path,
    entry: &ShardEntry,
    dim: Dim,
) -> Result<ShardRecord, ServeError> {
    let _span = crate::obs::span("serve/snapshot_load");
    check_load_seam()?;
    let file = File::open(path).map_err(|e| ServeError::io(path, &e))?;
    let shard = parse_shard(path, file, Some(entry.bytes))?.shard;
    let corrupt = |detail: String| ServeError::Corrupt {
        path: path.display().to_string(),
        section: "batch",
        detail,
    };
    if shard.shard_index != entry.shard_index || shard.bank.dim() != dim {
        return Err(corrupt(format!(
            "holds shard {} at dim {}, the manifest names shard {} at dim {dim}",
            shard.shard_index,
            shard.bank.dim(),
            entry.shard_index
        )));
    }
    // lint: cast-ok (usize -> u64 widening on 64-bit targets)
    if shard.bank.n_rows() as u64 != entry.rows {
        return Err(corrupt(format!(
            "{} committed bytes hold {} rows, the manifest commits {}",
            entry.bytes,
            shard.bank.n_rows(),
            entry.rows
        )));
    }
    Ok(shard)
}

/// Reads and fully validates the distillation-selection file; also returns
/// its pin.
///
/// `BitSelection`'s own constructor re-validates the invariants the format
/// cannot express (strictly ascending indices, all below the source
/// dimensionality), so a corrupted-but-checksum-valid payload still comes
/// back as a typed corruption error.
pub(crate) fn read_selection_pinned(path: &Path) -> Result<(BitSelection, SidecarPin), ServeError> {
    let _span = crate::obs::span("serve/snapshot_load");
    check_load_seam()?;
    let file = File::open(path).map_err(|e| ServeError::io(path, &e))?;
    let (mut reader, _) = FileReader::open(path, file, None)?;
    let (payload, pin) = reader.section(TAG_SELECTION, "selection")?;
    reader.expect_end()?;

    let mut inner = Cursor::new(&payload, path);
    let from_raw = inner.take_u64("selection")?;
    let k_raw = inner.take_u64("selection")?;
    let from = usize::try_from(from_raw)
        .ok()
        .and_then(|d| Dim::try_new(d).ok())
        .ok_or_else(|| {
            inner.corrupt(
                "selection",
                format!("impossible source dimensionality {from_raw}"),
            )
        })?;
    let k = usize::try_from(k_raw)
        .map_err(|_| inner.corrupt("selection", format!("impossible index count {k_raw}")))?;
    // Checked: a corrupt (attacker-controlled) count must become a typed
    // error, not an overflow panic or a huge Vec::with_capacity abort.
    let expected = k.checked_mul(4).and_then(|b| b.checked_add(16));
    if expected != Some(payload.len()) {
        return Err(inner.corrupt(
            "selection",
            format!(
                "selection payload has {} bytes for a claimed {k_raw} indices",
                payload.len()
            ),
        ));
    }
    // `k` is now bounded by the actual payload size.
    let mut indices = Vec::with_capacity(k);
    for chunk in inner.take(k * 4, "selection")?.chunks_exact(4) {
        let arr: [u8; 4] = chunk
            .try_into()
            .map_err(|_| inner.corrupt("selection", "index read".to_string()))?;
        indices.push(u32::from_le_bytes(arr));
    }
    inner.expect_exhausted()?;
    let selection = BitSelection::new(from, indices).map_err(|e| ServeError::Corrupt {
        path: path.display().to_string(),
        section: "selection",
        detail: e.to_string(),
    })?;
    Ok((selection, pin))
}

/// Reads and fully validates the distillation-selection file.
pub fn read_selection(path: &Path) -> Result<BitSelection, ServeError> {
    read_selection_pinned(path).map(|(selection, _)| selection)
}

/// Reads and fully validates the class-accumulator file; also returns its
/// pin.
pub(crate) fn read_accums_pinned(
    path: &Path,
) -> Result<(ClassAccumulators, SidecarPin), ServeError> {
    let _span = crate::obs::span("serve/snapshot_load");
    check_load_seam()?;
    let file = File::open(path).map_err(|e| ServeError::io(path, &e))?;
    let (mut reader, _) = FileReader::open(path, file, None)?;
    let (payload, pin) = reader.section(TAG_ACCUMS, "accums")?;
    reader.expect_end()?;

    let mut inner = Cursor::new(&payload, path);
    let dim_raw = inner.take_u64("accums")?;
    let n_classes_raw = inner.take_u64("accums")?;
    let dim = usize::try_from(dim_raw)
        .ok()
        .and_then(|d| Dim::try_new(d).ok())
        .ok_or_else(|| inner.corrupt("accums", format!("impossible dimensionality {dim_raw}")))?;
    let n_classes = usize::try_from(n_classes_raw)
        .map_err(|_| inner.corrupt("accums", format!("impossible class count {n_classes_raw}")))?;
    // Checked: the class count is corruption controlled (see the labels
    // check in `FileReader::batch`).
    let expected = dim
        .get()
        .checked_add(1)
        .and_then(|per| per.checked_mul(4))
        .and_then(|per| per.checked_mul(n_classes))
        .and_then(|body| body.checked_add(16));
    if expected != Some(payload.len()) {
        return Err(inner.corrupt(
            "accums",
            format!(
                "accumulator payload has {} bytes for a claimed \
                 {n_classes} classes x dim {dim}",
                payload.len()
            ),
        ));
    }
    let mut totals = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        let arr: [u8; 4] = inner
            .take(4, "accums")?
            .try_into()
            .map_err(|_| inner.corrupt("accums", "total read".to_string()))?;
        totals.push(i32::from_le_bytes(arr));
    }
    let mut ones = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        let mut class_ones = Vec::with_capacity(dim.get());
        for chunk in inner.take(dim.get() * 4, "accums")?.chunks_exact(4) {
            let arr: [u8; 4] = chunk
                .try_into()
                .map_err(|_| inner.corrupt("accums", "count read".to_string()))?;
            class_ones.push(i32::from_le_bytes(arr));
        }
        ones.push(class_ones);
    }
    inner.expect_exhausted()?;
    let accums =
        ClassAccumulators::from_parts(dim, ones, totals).map_err(|e| ServeError::Corrupt {
            path: path.display().to_string(),
            section: "accums",
            detail: e.to_string(),
        })?;
    Ok((accums, pin))
}

/// Reads and fully validates the class-accumulator file.
pub fn read_accums(path: &Path) -> Result<ClassAccumulators, ServeError> {
    read_accums_pinned(path).map(|(accums, _)| accums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperfex_hdc::rng::SplitMix64;
    use hyperfex_hdc::BinaryHypervector;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hyperfex-serve-snap-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_shard(dim_bits: usize, n_rows: usize, seed: u64) -> ShardRecord {
        let mut rng = SplitMix64::new(seed);
        let dim = Dim::new(dim_bits);
        let hvs: Vec<_> = (0..n_rows)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        ShardRecord {
            shard_index: 2,
            labels: (0..n_rows).map(|i| (i % 3) as u32).collect(),
            bank: BitMatrix::from_hypervectors(&hvs).unwrap(),
        }
    }

    /// The bytewise CRC32 loop that slicing-by-8 replaced, kept as the
    /// oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
            crc = CRC_TABLES[0][idx] ^ (crc >> 8);
        }
        !crc
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_oracle_at_every_length_mod_8() {
        for len in 0..=72 {
            let bytes = random_bytes(len, len as u64);
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "length {len}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Slicing-by-8 equals the bytewise oracle on random byte strings,
        /// and a running checksum fed in two pieces split anywhere equals
        /// the one-shot checksum.
        #[test]
        fn crc32_equals_the_bytewise_oracle_over_any_split(
            seed in proptest::any::<u64>(),
            len in 0usize..600,
            split in 0usize..600,
        ) {
            let bytes = random_bytes(len, seed);
            let expected = crc32_bytewise(&bytes);
            proptest::prop_assert_eq!(crc32(&bytes), expected);
            let (head, tail) = bytes.split_at(split.min(len));
            let mut running = Crc32::new();
            running.update(head);
            running.update(tail);
            proptest::prop_assert_eq!(running.finish(), expected);
        }
    }

    /// The whole-file encoding the streamed writers replaced, kept as the
    /// byte-level oracle: each section assembled in memory, then
    /// concatenated behind the header.
    fn whole_file_encoding(version: u32, sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&version.to_le_bytes());
        for (tag, payload) in sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&crc32_bytewise(payload).to_le_bytes());
        }
        out
    }

    #[test]
    fn streamed_writers_match_the_whole_file_encoding_across_chunks() {
        let dir = scratch_dir("streamed");
        // 60 rows at 10,050 bits: the 75,840-byte bank spans two encode
        // chunks, the second one partial.
        let shard = sample_shard(10_050, 60, 41);
        let path = dir.join("big.hfex");
        write_shard(&path, &shard).unwrap();
        let mut meta = Vec::new();
        meta.extend_from_slice(&10_050u64.to_le_bytes());
        meta.extend_from_slice(&shard.shard_index.to_le_bytes());
        let labels: Vec<u8> = shard.labels.iter().flat_map(|l| l.to_le_bytes()).collect();
        let bank: Vec<u8> = shard
            .bank
            .raw_words()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        assert!(bank.len() > CHUNK_BYTES);
        let expected = whole_file_encoding(
            VERSION,
            &[(TAG_META, meta), (TAG_LABELS, labels), (TAG_BANK, bank)],
        );
        assert!(fs::read(&path).unwrap() == expected);

        // Three classes at 10,050 bits: a 120,616-byte accumulator payload.
        let dim = Dim::new(10_050);
        let mut acc = ClassAccumulators::new(dim);
        let records: Vec<_> = (0..3).map(|r| shard.bank.row_hypervector(r)).collect();
        acc.add_batch(&records, &[0, 2, 2]).unwrap();
        let acc_path = dir.join(ACCUMS_FILE_NAME);
        write_accums(&acc_path, &acc).unwrap();
        let (ones, totals) = acc.parts();
        let mut payload = Vec::new();
        payload.extend_from_slice(&10_050u64.to_le_bytes());
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.extend(totals.iter().flat_map(|t| t.to_le_bytes()));
        payload.extend(ones.iter().flatten().flat_map(|c| c.to_le_bytes()));
        let expected = whole_file_encoding(1, &[(TAG_ACCUMS, payload)]);
        assert!(fs::read(&acc_path).unwrap() == expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accums_with_counts_past_2_pow_30_round_trip_and_reopen() {
        // Every member of class 0 set every bit, so its counts equal its
        // total, 2^30 + 1: the i32 quantise rule overflowed on exactly this
        // CRC-valid file (a panic inside `HvStore::open` in debug builds,
        // an all-zeros prototype in release).
        let dir = scratch_dir("bigcounts");
        let cohort = crate::cohort::SyntheticCohort::generate(Dim::new(70), 2, 8, 5, 3).unwrap();
        let mut store = crate::store::HvStore::build(&cohort.records, &cohort.labels, 2).unwrap();
        store.save(&dir).unwrap();
        let big = (1 << 30) + 1;
        let acc = ClassAccumulators::from_parts(
            Dim::new(70),
            vec![vec![big; 70], vec![-big; 70]],
            vec![big, big],
        )
        .unwrap();
        let path = dir.join(ACCUMS_FILE_NAME);
        write_accums(&path, &acc).unwrap();
        let read = read_accums(&path).unwrap();
        assert_eq!(read, acc);
        assert_eq!(
            read.prototype(0).unwrap(),
            &BinaryHypervector::ones(Dim::new(70))
        );
        assert_eq!(
            read.prototype(1).unwrap(),
            &BinaryHypervector::zeros(Dim::new(70))
        );

        // `open` parses the file without overflowing, sees totals no kept
        // row backs, and rebuilds the accumulators from the rows.
        let (reopened, report) = crate::store::HvStore::open(&dir).unwrap();
        assert!(report.accumulators_recovered);
        assert!(report.accumulators_rebuilt);
        assert_eq!(reopened.accumulators(), store.accumulators());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_round_trips_across_tail_word_dims() {
        let dir = scratch_dir("roundtrip");
        for (i, dim_bits) in [63usize, 64, 65, 130, 1000].into_iter().enumerate() {
            let shard = sample_shard(dim_bits, 7, i as u64);
            let path = dir.join(format!("rt-{dim_bits}.hfex"));
            write_shard(&path, &shard).unwrap();
            let loaded = read_shard(&path).unwrap();
            assert_eq!(loaded, shard, "dim {dim_bits} must round-trip exactly");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accums_round_trip_and_reject_bad_payloads() {
        let dir = scratch_dir("accums");
        let dim = Dim::new(70);
        let mut rng = SplitMix64::new(5);
        let mut acc = ClassAccumulators::new(dim);
        for i in 0..20 {
            let hv = BinaryHypervector::random(dim, &mut rng);
            acc.grow(i % 2).unwrap();
            acc.add(i % 2, &hv, 1);
        }
        let path = dir.join(ACCUMS_FILE_NAME);
        write_accums(&path, &acc).unwrap();
        assert_eq!(read_accums(&path).unwrap(), acc);

        // A flipped payload byte is a checksum mismatch, not a panic.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = read_accums(&path).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Corrupt {
                    section: "accums",
                    ..
                }
            ),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_defects_are_typed() {
        let dir = scratch_dir("header");
        let shard = sample_shard(100, 4, 9);
        let path = dir.join("victim.hfex");
        write_shard(&path, &shard).unwrap();
        let pristine = fs::read(&path).unwrap();

        // Clobbered magic.
        let mut bytes = pristine.clone();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_shard(&path).unwrap_err(),
            ServeError::BadMagic { .. }
        ));

        // Future version.
        let mut bytes = pristine.clone();
        bytes[8] = 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_shard(&path).unwrap_err(),
            ServeError::UnsupportedVersion { found, .. } if found != VERSION
        ));

        // Truncation mid-bank.
        let cut = pristine.len() - 11;
        fs::write(&path, &pristine[..cut]).unwrap();
        let err = read_shard(&path).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");

        // Trailing garbage.
        let mut bytes = pristine;
        bytes.extend_from_slice(b"junk");
        fs::write(&path, &bytes).unwrap();
        let err = read_shard(&path).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");

        // An empty file fails on the magic, not with a slice panic.
        fs::write(&path, []).unwrap();
        assert!(matches!(
            read_shard(&path).unwrap_err(),
            ServeError::BadMagic { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bank_tail_corruption_is_rejected_by_section_name() {
        let dir = scratch_dir("tail");
        // dim 70: the final word of each row has 58 dead tail bits.
        let shard = sample_shard(70, 3, 13);
        let path = dir.join("victim.hfex");
        write_shard(&path, &shard).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // The bank section is last: its final payload word's top byte sits
        // 5 bytes before EOF (8-byte word, then the 4-byte CRC). Setting a
        // high bit there breaks the tail invariant; recompute the CRC so
        // only the invariant check can catch it.
        let crc_start = bytes.len() - 4;
        let word_top = bytes.len() - 4 - 1;
        bytes[word_top] |= 0x80;
        let bank_payload_len = shard.bank.raw_words().len() * 8;
        let payload_start = crc_start - bank_payload_len;
        let fixed = crc32(&bytes[payload_start..crc_start]);
        bytes[crc_start..].copy_from_slice(&fixed.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = read_shard(&path).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Corrupt {
                    section: "bank",
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("dim"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn selection_round_trips_and_rejects_corruption() {
        let dir = scratch_dir("selection");
        let path = dir.join(SELECTION_FILE_NAME);
        let selection = BitSelection::random(Dim::new(10_050), 2_000, 17).unwrap();
        write_selection(&path, &selection).unwrap();
        assert_eq!(read_selection(&path).unwrap(), selection);

        // A flipped payload byte is a checksum mismatch, not a panic.
        let pristine = fs::read(&path).unwrap();
        let mut bytes = pristine.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_selection(&path).unwrap_err(),
            ServeError::Corrupt {
                section: "selection",
                ..
            }
        ));

        // Checksum-valid but semantically broken payloads are caught by
        // the BitSelection invariants: swap two indices (descending order)
        // and re-seal the CRC.
        let mut bytes = pristine;
        let payload_start = 8 + 4 + 4 + 8; // magic, version, tag, len
        let first_index = payload_start + 16;
        let (a, b) = (first_index, first_index + 4);
        for i in 0..4 {
            bytes.swap(a + i, b + i);
        }
        let crc_start = bytes.len() - 4;
        let fixed = crc32(&bytes[payload_start..crc_start]);
        bytes[crc_start..].copy_from_slice(&fixed.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = read_selection(&path).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Corrupt {
                    section: "selection",
                    ..
                }
            ),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A shard file as the v1/v2 writers laid it out: `META` (dim, row
    /// count, shard index, shard count), then one `LABL` + `BANK` batch.
    fn legacy_shard_bytes(version: u32, shard: &ShardRecord, n_shards: u32) -> Vec<u8> {
        let mut meta = Vec::new();
        meta.extend_from_slice(&(shard.bank.dim().get() as u64).to_le_bytes());
        meta.extend_from_slice(&(shard.bank.n_rows() as u64).to_le_bytes());
        meta.extend_from_slice(&shard.shard_index.to_le_bytes());
        meta.extend_from_slice(&n_shards.to_le_bytes());
        let labels: Vec<u8> = shard.labels.iter().flat_map(|l| l.to_le_bytes()).collect();
        let bank: Vec<u8> = shard
            .bank
            .raw_words()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        whole_file_encoding(
            version,
            &[(TAG_META, meta), (TAG_LABELS, labels), (TAG_BANK, bank)],
        )
    }

    #[test]
    fn version_1_snapshots_still_read() {
        // v2 changed nothing about the shard layout and v3 reads a v1/v2
        // shard as its one batch: a file stamped v1 or v2 must parse
        // identically, and a future version must stay typed.
        let dir = scratch_dir("versions");
        let shard = sample_shard(100, 4, 31);
        let path = dir.join("v1.hfex");
        let mut bytes = legacy_shard_bytes(1, &shard, 4);
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_shard(&path).unwrap(), shard);
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_shard(&path).unwrap(), shard);

        bytes[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_shard(&path).unwrap_err(),
            ServeError::UnsupportedVersion { found, .. } if found == VERSION + 1
        ));

        // The writers stamp each file kind with the version that
        // introduced its layout: shards v3, accumulators v1, selection v2.
        let shard = sample_shard(100, 4, 31);
        let path = dir.join("v3.hfex");
        write_shard(&path, &shard).unwrap();
        assert_eq!(fs::read(&path).unwrap()[8..12], VERSION.to_le_bytes());
        assert_eq!(read_shard(&path).unwrap(), shard);
        let mut acc = ClassAccumulators::new(Dim::new(32));
        acc.grow(0).unwrap();
        let acc_path = dir.join(ACCUMS_FILE_NAME);
        write_accums(&acc_path, &acc).unwrap();
        assert_eq!(fs::read(&acc_path).unwrap()[8..12], 1u32.to_le_bytes());
        let sel_path = dir.join(SELECTION_FILE_NAME);
        let selection = BitSelection::random(Dim::new(64), 16, 3).unwrap();
        write_selection(&sel_path, &selection).unwrap();
        assert_eq!(fs::read(&sel_path).unwrap()[8..12], 2u32.to_le_bytes());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v2_shard_claiming_u32_max_shards_opens_promptly_and_balanced() {
        // One CRC-valid v2 shard claims 2^32 - 1 shards. Recovery may
        // report at most one missing shard per file found, not loop or
        // allocate over the claim.
        let dir = scratch_dir("claim-max");
        let mut shard = sample_shard(100, 4, 61);
        shard.shard_index = 0;
        fs::write(
            dir.join(shard_file_name(0)),
            legacy_shard_bytes(2, &shard, u32::MAX),
        )
        .unwrap();
        let started = std::time::Instant::now();
        let (store, report) = crate::store::HvStore::open(&dir).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
        assert!(report.is_complete());
        assert_eq!(report.kept, vec![0]);
        assert_eq!(report.total_shards, 2);
        assert_eq!(report.quarantined[0].shard_index, Some(1));
        assert_eq!(store.n_rows(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn selection_with_absurd_claimed_count_is_typed_corruption() {
        // A checksum-valid payload claiming ~u64::MAX indices must come
        // back as a typed error — not an arithmetic-overflow panic (debug)
        // or a capacity-overflow abort (release).
        let dir = scratch_dir("hugecount");
        let path = dir.join(SELECTION_FILE_NAME);
        let selection = BitSelection::random(Dim::new(256), 8, 23).unwrap();
        write_selection(&path, &selection).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let payload_start = 8 + 4 + 4 + 8; // magic, version, tag, len
        let count_at = payload_start + 8;
        // Claim a count whose `16 + k * 4` wraps past usize::MAX.
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc_start = bytes.len() - 4;
        let fixed = crc32(&bytes[payload_start..crc_start]);
        bytes[crc_start..].copy_from_slice(&fixed.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = read_selection(&path).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Corrupt {
                    section: "selection",
                    ..
                }
            ),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_reject_inconsistent_shards() {
        let dir = scratch_dir("reject");
        let mut shard = sample_shard(64, 4, 21);
        shard.labels.pop();
        let mut commit = Commit::new(&dir);
        assert!(matches!(
            commit.write_shard("x.hfex", &shard).unwrap_err(),
            ServeError::ShardConflict { .. }
        ));
        assert!(matches!(
            commit.append_rows("x.hfex", 0, &shard, 0..1).unwrap_err(),
            ServeError::ShardConflict { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appended_batches_read_back_and_only_committed_bytes_count() {
        let dir = scratch_dir("batches");
        let shard = sample_shard(130, 9, 51);
        let name = shard_file_name(shard.shard_index);
        let mut commit = Commit::new(&dir);
        let whole = commit
            .write_shard(
                &name,
                &ShardRecord {
                    labels: shard.labels[..2].to_vec(),
                    bank: BitMatrix::from_hypervectors(
                        &(0..2)
                            .map(|r| shard.bank.row_hypervector(r))
                            .collect::<Vec<_>>(),
                    )
                    .unwrap(),
                    ..shard.clone()
                },
            )
            .unwrap();
        let manifest = |rows: u64, bytes: u64| Manifest {
            generation: 1,
            dim: Dim::new(130),
            shard_capacity: 16,
            n_shards: 3,
            accums: None,
            rebuild_accums: false,
            selection: None,
            shards: vec![ShardEntry {
                shard_index: 2,
                file_tag: 0,
                rows,
                bytes,
                lost: false,
            }],
        };
        commit.publish(&manifest(2, whole)).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(manifest(2, whole)));

        // Two more batches: rows 2..5 and 5..9.
        let mut commit = Commit::new(&dir);
        let after_one = commit.append_rows(&name, whole, &shard, 2..5).unwrap();
        let after_two = commit.append_rows(&name, after_one, &shard, 5..9).unwrap();
        assert_eq!(after_two, fs::metadata(dir.join(&name)).unwrap().len());
        // Read to its end, the file holds every row; read to a committed
        // length, only the rows before it.
        let path = dir.join(&name);
        assert_eq!(read_shard(&path).unwrap(), shard);
        let entry = manifest(5, after_one).shards[0].clone();
        let prefix = read_committed_shard(&path, &entry, Dim::new(130)).unwrap();
        assert_eq!(prefix.labels, shard.labels[..5]);
        assert_eq!(prefix.bank.raw_words(), &shard.bank.raw_words()[..5 * 3]);
        // A committed count the bytes do not hold is corruption.
        let wrong = ShardEntry { rows: 4, ..entry };
        assert!(read_committed_shard(&path, &wrong, Dim::new(130)).is_err());

        // Appending at the committed length cuts the torn tail first.
        let mut commit = Commit::new(&dir);
        let again = commit.append_rows(&name, after_one, &shard, 5..9).unwrap();
        assert_eq!(again, after_two);
        assert_eq!(read_shard(&path).unwrap(), shard);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifests_round_trip_and_reject_impossible_entry_counts() {
        let dir = scratch_dir("manifest");
        let manifest = Manifest {
            generation: 7,
            dim: Dim::new(10_000),
            shard_capacity: 4_096,
            n_shards: 6,
            accums: Some(SidecarPin {
                payload_len: 80_024,
                crc: 0xDEAD_BEEF,
            }),
            rebuild_accums: true,
            selection: None,
            shards: (0..6)
                .map(|i| ShardEntry {
                    shard_index: i,
                    file_tag: u64::from(i % 2) * 5,
                    rows: 4_096,
                    bytes: 5_160_000,
                    lost: i == 2,
                })
                .collect(),
        };
        let bytes = whole_file_encoding(VERSION, &[(TAG_MANIFEST, manifest.encode())]);
        let path = dir.join(MANIFEST_FILE_NAME);
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(manifest.clone()));
        assert_eq!(manifest.entry(3).unwrap().file_name(), "shard-0003-g5.hfex");
        assert_eq!(manifest.entry(4).unwrap().file_name(), "shard-0004.hfex");

        // A checksum-valid payload claiming u64::MAX entries is a typed
        // error, not a loop or an allocation.
        let mut payload = manifest.encode();
        payload[64..72].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(
            &path,
            whole_file_encoding(VERSION, &[(TAG_MANIFEST, payload)]),
        )
        .unwrap();
        let err = read_manifest(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Corrupt {
                    section: "manifest",
                    ..
                }
            ),
            "{err}"
        );
        // So is a rebuild flag on the selection pin, which has no rows to
        // be rebuilt from.
        let mut payload = manifest.encode();
        payload[48..52].copy_from_slice(&2u32.to_le_bytes());
        fs::write(
            &path,
            whole_file_encoding(VERSION, &[(TAG_MANIFEST, payload)]),
        )
        .unwrap();
        assert!(read_manifest(&dir).is_err());
        // So are entries out of order.
        let mut swapped = manifest;
        swapped.shards.swap(0, 1);
        fs::write(
            &path,
            whole_file_encoding(VERSION, &[(TAG_MANIFEST, swapped.encode())]),
        )
        .unwrap();
        assert!(read_manifest(&dir).is_err());
        fs::remove_file(&path).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }
}
