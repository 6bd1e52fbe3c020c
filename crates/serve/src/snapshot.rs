//! The durable on-disk shard format: checksummed, versioned, atomic.
//!
//! One snapshot is a directory of self-describing shard files plus an
//! optional accumulator file. Every file is laid out as
//!
//! ```text
//! magic "HFEXSNAP" (8 bytes) | version u32 LE |
//!   section*:  tag (4 bytes) | payload_len u64 LE | payload | crc32 u32 LE
//! ```
//!
//! with sections in a fixed order per file kind. The CRC32 (IEEE
//! polynomial, the same checksum zlib and PNG use) is computed over each
//! section payload independently, so a reader can report *which* section a
//! bit flip landed in. Truncation is caught by the length prefixes (a
//! payload that runs past the end of the file is a typed
//! [`ServeError::Corrupt`], never a panic), header clobbering by the magic
//! and version checks, and trailing garbage by requiring the final section
//! to end exactly at end-of-file.
//!
//! Writers never touch the destination path directly: each section's
//! payload and CRC stream into a `.tmp` sibling (no whole-file buffer is
//! built) which is then renamed over the target, so a process crash
//! mid-save leaves the previous good file intact. That is atomicity
//! against a process crash, not durability across power loss: nothing is
//! fsynced, so after a machine crash the rename (or the data behind it)
//! may not have reached the disk. The `serve/snapshot_write` failpoint
//! sits between the temp write and the rename — exactly the window a
//! crash-safety test needs to prove atomicity — and
//! `serve/snapshot_load` arms the read path.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
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
/// ([`SELECTION_FILE_NAME`]); the shard and accumulator layouts are
/// unchanged, so readers accept [`MIN_VERSION`]`..=`[`VERSION`] and a v1
/// snapshot opens exactly as before (with no selection).
pub const VERSION: u32 = 2;
/// Oldest format version this build still reads.
pub const MIN_VERSION: u32 = 1;
/// Version stamped on files whose layout is unchanged since v1 — shards
/// and accumulators. Writing them as v1 keeps snapshots readable after a
/// rollback to a pre-v2 build (which rejects any version above 1); only
/// the selection file, which older builds never look for, carries
/// [`VERSION`].
const UNCHANGED_LAYOUT_VERSION: u32 = 1;

const TAG_META: [u8; 4] = *b"META";
const TAG_LABELS: [u8; 4] = *b"LABL";
const TAG_BANK: [u8; 4] = *b"BANK";
const TAG_ACCUMS: [u8; 4] = *b"ACCU";
const TAG_SELECTION: [u8; 4] = *b"BSEL";

/// File name of shard `index` inside a snapshot directory.
#[must_use]
pub fn shard_file_name(index: u32) -> String {
    format!("shard-{index:04}.hfex")
}

/// File name of the optional class-accumulator file.
pub const ACCUMS_FILE_NAME: &str = "accums.hfex";

/// File name of the optional distillation-selection file (format v2+).
pub const SELECTION_FILE_NAME: &str = "selection.hfex";

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

/// Streams one snapshot file: header, then sections whose payload is
/// checksummed as it is written, so no whole-file buffer is built.
struct FileWriter {
    out: BufWriter<File>,
    /// Encoding buffer for little-endian integer payloads.
    chunk: Vec<u8>,
    crc: Crc32,
    /// Payload bytes the open section still expects.
    remaining: usize,
}

impl FileWriter {
    fn new(mut out: BufWriter<File>, version: u32) -> io::Result<Self> {
        out.write_all(&MAGIC)?;
        out.write_all(&version.to_le_bytes())?;
        Ok(Self {
            out,
            chunk: vec![0u8; CHUNK_BYTES],
            crc: Crc32::new(),
            remaining: 0,
        })
    }

    /// Writes a section's tag and payload length; the payload follows via
    /// [`FileWriter::put_le`], then [`FileWriter::end_section`].
    fn begin_section(&mut self, tag: [u8; 4], payload_len: usize) -> io::Result<()> {
        self.out.write_all(&tag)?;
        // lint: cast-ok (usize -> u64 widening on 64-bit targets)
        self.out.write_all(&(payload_len as u64).to_le_bytes())?;
        self.crc = Crc32::new();
        self.remaining = payload_len;
        Ok(())
    }

    /// Appends `values` to the open section's payload as `N`-byte
    /// little-endian integers, encoded a chunk at a time.
    // lint: index-ok (a group holds at most CHUNK_BYTES / N values, so its bytes fit the CHUNK_BYTES buffer)
    fn put_le<T: Copy, const N: usize>(
        &mut self,
        values: &[T],
        to_le: fn(T) -> [u8; N],
    ) -> io::Result<()> {
        for group in values.chunks(CHUNK_BYTES / N) {
            for (dst, &value) in self.chunk.chunks_exact_mut(N).zip(group) {
                dst.copy_from_slice(&to_le(value));
            }
            let bytes = &self.chunk[..group.len() * N];
            self.remaining = self
                .remaining
                .checked_sub(bytes.len())
                .ok_or_else(|| io::Error::other("section payload overruns its length"))?;
            self.crc.update(bytes);
            self.out.write_all(bytes)?;
        }
        Ok(())
    }

    /// Closes the open section with the CRC32 of its payload. Fails if the
    /// payload fell short of the length written by `begin_section`.
    fn end_section(&mut self) -> io::Result<()> {
        if self.remaining != 0 {
            return Err(io::Error::other(format!(
                "section payload is {} bytes short of its length",
                self.remaining
            )));
        }
        self.out.write_all(&self.crc.finish().to_le_bytes())
    }
}

/// The single arm site of the `serve/snapshot_load` seam; both readers
/// route through it so chaos plans see one evaluation per file read.
fn check_load_seam() -> Result<(), ServeError> {
    failpoint::check("serve/snapshot_load")?;
    Ok(())
}

/// Writes a snapshot file to `path` via a `.tmp` sibling and a rename:
/// `encode` streams the file into the buffered temp file, which is then
/// flushed, closed and renamed over `path`.
///
/// The `serve/snapshot_write` failpoint fires after the temp file is fully
/// written but before the rename: an injected crash there must leave any
/// previous file at `path` untouched.
///
/// The guarantee is atomicity against a process crash: `path` holds
/// either the old file or the complete new one. It is not durability
/// across power loss — neither the temp file nor the directory is
/// fsynced, so a machine crash can lose a rename the OS had not yet
/// written back.
fn write_atomic(
    path: &Path,
    version: u32,
    encode: impl FnOnce(&mut FileWriter) -> io::Result<()>,
) -> Result<(), ServeError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp).and_then(|file| {
        let mut writer = FileWriter::new(BufWriter::new(file), version)?;
        encode(&mut writer)?;
        // Flushes the buffer; dropping the file then closes it.
        writer
            .out
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?;
        Ok(())
    });
    if let Err(e) = written {
        // Best-effort cleanup; a leftover temp file is inert.
        drop(fs::remove_file(&tmp));
        return Err(ServeError::io(&tmp, &e));
    }
    if let Err(injected) = failpoint::check("serve/snapshot_write") {
        // Best-effort cleanup; a leftover temp file is inert.
        drop(fs::remove_file(&tmp));
        return Err(injected.into());
    }
    fs::rename(&tmp, path).map_err(|e| ServeError::io(path, &e))?;
    Ok(())
}

/// One shard of a store, as persisted: its position in the shard set, the
/// labels of its rows, and the packed hypervector bank itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// This shard's index in `0..n_shards`.
    pub shard_index: u32,
    /// Total shard count of the snapshot this shard belongs to.
    pub n_shards: u32,
    /// Per-row class labels (`labels.len() == bank.n_rows()`).
    pub labels: Vec<u32>,
    /// The packed `n_rows x dim` hypervector bank.
    pub bank: BitMatrix,
}

/// Serializes and atomically writes one shard file.
pub fn write_shard(path: &Path, shard: &ShardRecord) -> Result<(), ServeError> {
    let _span = crate::obs::span("serve/snapshot_write");
    if shard.labels.len() != shard.bank.n_rows() {
        return Err(ServeError::ShardConflict {
            detail: format!(
                "shard {} has {} labels for {} bank rows",
                shard.shard_index,
                shard.labels.len(),
                shard.bank.n_rows()
            ),
        });
    }
    if shard.shard_index >= shard.n_shards {
        return Err(ServeError::ShardConflict {
            detail: format!(
                "shard index {} out of range for {} shards",
                shard.shard_index, shard.n_shards
            ),
        });
    }
    // lint: cast-ok (usize -> u64 widening on 64-bit targets)
    let meta_sizes = [shard.bank.dim().get() as u64, shard.bank.n_rows() as u64];
    let words = shard.bank.raw_words();
    write_atomic(path, UNCHANGED_LAYOUT_VERSION, |file| {
        file.begin_section(TAG_META, 24)?;
        file.put_le(&meta_sizes, u64::to_le_bytes)?;
        file.put_le(&[shard.shard_index, shard.n_shards], u32::to_le_bytes)?;
        file.end_section()?;
        file.begin_section(TAG_LABELS, shard.labels.len() * 4)?;
        file.put_le(&shard.labels, u32::to_le_bytes)?;
        file.end_section()?;
        file.begin_section(TAG_BANK, words.len() * 8)?;
        file.put_le(words, u64::to_le_bytes)?;
        file.end_section()
    })
}

/// Serializes and atomically writes the class-accumulator file.
pub fn write_accums(path: &Path, accums: &ClassAccumulators) -> Result<(), ServeError> {
    let _span = crate::obs::span("serve/snapshot_write");
    let (ones, totals) = accums.parts();
    let dim = accums.dim().get();
    // lint: cast-ok (usize -> u64 widening on 64-bit targets)
    let sizes = [dim as u64, totals.len() as u64];
    let payload_len = 16 + totals.len() * 4 + ones.len() * dim * 4;
    write_atomic(path, UNCHANGED_LAYOUT_VERSION, |file| {
        file.begin_section(TAG_ACCUMS, payload_len)?;
        file.put_le(&sizes, u64::to_le_bytes)?;
        file.put_le(totals, i32::to_le_bytes)?;
        for class_ones in ones {
            file.put_le(class_ones, i32::to_le_bytes)?;
        }
        file.end_section()
    })
}

/// Serializes and atomically writes the distillation-selection file, so a
/// pruned store round-trips *how* it was pruned — a reopened snapshot can
/// gather new full-width records (or remap an encoder) without the
/// training-time pipeline that produced the selection.
pub fn write_selection(path: &Path, selection: &BitSelection) -> Result<(), ServeError> {
    let _span = crate::obs::span("serve/snapshot_write");
    let indices = selection.indices();
    // lint: cast-ok (usize -> u64 widening on 64-bit targets)
    let sizes = [selection.source_dim().get() as u64, indices.len() as u64];
    write_atomic(path, VERSION, |file| {
        file.begin_section(TAG_SELECTION, 16 + indices.len() * 4)?;
        file.put_le(&sizes, u64::to_le_bytes)?;
        file.put_le(indices, u32::to_le_bytes)?;
        file.end_section()
    })
}

/// Reads and fully validates the distillation-selection file.
///
/// `BitSelection`'s own constructor re-validates the invariants the format
/// cannot express (strictly ascending indices, all below the source
/// dimensionality), so a corrupted-but-checksum-valid payload still comes
/// back as a typed corruption error.
pub fn read_selection(path: &Path) -> Result<BitSelection, ServeError> {
    let _span = crate::obs::span("serve/snapshot_load");
    check_load_seam()?;
    let bytes = fs::read(path).map_err(|e| ServeError::io(path, &e))?;
    let mut cursor = open_container(path, &bytes)?;
    let payload = cursor.take_section(TAG_SELECTION, "selection")?;
    cursor.expect_exhausted()?;

    let mut inner = Cursor {
        bytes: payload,
        pos: 0,
        path,
    };
    let from_raw = inner.take_u64("selection")?;
    let k_raw = inner.take_u64("selection")?;
    let from = usize::try_from(from_raw)
        .ok()
        .and_then(|d| Dim::try_new(d).ok())
        .ok_or_else(|| {
            inner.corrupt("selection", format!("impossible source dimensionality {from_raw}"))
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
    BitSelection::new(from, indices).map_err(|e| ServeError::Corrupt {
        path: path.display().to_string(),
        section: "selection",
        detail: e.to_string(),
    })
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// A bounds-checked reader over a file's bytes: every read is a typed
/// corruption error when it would run past the end.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
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

    /// Reads one section envelope, verifies tag and checksum, and returns
    /// the payload.
    fn take_section(
        &mut self,
        expect_tag: [u8; 4],
        section: &'static str,
    ) -> Result<&'a [u8], ServeError> {
        let tag = self.take(4, section)?;
        if tag != expect_tag {
            return Err(self.corrupt(
                section,
                format!("expected section tag {expect_tag:?}, found {tag:?}"),
            ));
        }
        let len = self.take_u64(section)?;
        let len = usize::try_from(len)
            .map_err(|_| self.corrupt(section, format!("impossible section length {len}")))?;
        let payload = self.take(len, section)?;
        let stored = self.take_u32(section)?;
        let actual = crc32(payload);
        if stored != actual {
            return Err(self.corrupt(
                section,
                format!("checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"),
            ));
        }
        Ok(payload)
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

/// Validates the magic and version header; returns a cursor positioned at
/// the first section.
fn open_container<'a>(path: &'a Path, bytes: &'a [u8]) -> Result<Cursor<'a>, ServeError> {
    let mut cursor = Cursor {
        bytes,
        pos: 0,
        path,
    };
    let magic = cursor.take(8, "header").map_err(|_| ServeError::BadMagic {
        path: path.display().to_string(),
    })?;
    if magic != MAGIC {
        return Err(ServeError::BadMagic {
            path: path.display().to_string(),
        });
    }
    let version = cursor.take_u32("header")?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(ServeError::UnsupportedVersion {
            path: path.display().to_string(),
            found: version,
            supported: VERSION,
        });
    }
    Ok(cursor)
}

/// Reads and fully validates one shard file.
///
/// Any defect — bad magic, unknown version, checksum mismatch, truncated
/// or oversized section, label/bank arity disagreement, a bank row with
/// bits above the dimensionality — is a typed error; the caller
/// ([`crate::store::HvStore::open`]) turns it into a quarantine entry.
pub fn read_shard(path: &Path) -> Result<ShardRecord, ServeError> {
    let _span = crate::obs::span("serve/snapshot_load");
    check_load_seam()?;
    let bytes = fs::read(path).map_err(|e| ServeError::io(path, &e))?;
    let mut cursor = open_container(path, &bytes)?;

    let meta = cursor.take_section(TAG_META, "meta")?;
    let mut meta_cursor = Cursor {
        bytes: meta,
        pos: 0,
        path,
    };
    let dim_raw = meta_cursor.take_u64("meta")?;
    let n_rows_raw = meta_cursor.take_u64("meta")?;
    let shard_index = meta_cursor.take_u32("meta")?;
    let n_shards = meta_cursor.take_u32("meta")?;
    meta_cursor.expect_exhausted().map_err(|_| {
        cursor.corrupt(
            "meta",
            format!("meta section has {} bytes, expected 24", meta.len()),
        )
    })?;
    let dim = usize::try_from(dim_raw)
        .ok()
        .and_then(|d| Dim::try_new(d).ok())
        .ok_or_else(|| cursor.corrupt("meta", format!("impossible dimensionality {dim_raw}")))?;
    let n_rows = usize::try_from(n_rows_raw)
        .map_err(|_| cursor.corrupt("meta", format!("impossible row count {n_rows_raw}")))?;
    if shard_index >= n_shards {
        return Err(cursor.corrupt(
            "meta",
            format!("shard index {shard_index} out of range for {n_shards} shards"),
        ));
    }

    let labels_raw = cursor.take_section(TAG_LABELS, "labels")?;
    // Checked arithmetic throughout: the row count is corruption
    // controlled, so an oversized value must become a typed error rather
    // than an overflow panic or an absurd Vec::with_capacity.
    if n_rows.checked_mul(4) != Some(labels_raw.len()) {
        return Err(cursor.corrupt(
            "labels",
            format!(
                "label section has {} bytes for a claimed {n_rows} rows",
                labels_raw.len()
            ),
        ));
    }
    let mut labels = Vec::with_capacity(n_rows);
    for chunk in labels_raw.chunks_exact(4) {
        let arr: [u8; 4] = chunk
            .try_into()
            .map_err(|_| cursor.corrupt("labels", "label read".to_string()))?;
        labels.push(u32::from_le_bytes(arr));
    }

    let bank_raw = cursor.take_section(TAG_BANK, "bank")?;
    let expected_words = n_rows.checked_mul(dim.words());
    if expected_words.and_then(|w| w.checked_mul(8)) != Some(bank_raw.len()) {
        return Err(cursor.corrupt(
            "bank",
            format!(
                "bank section has {} bytes for a claimed {n_rows} rows x {} words",
                bank_raw.len(),
                dim.words()
            ),
        ));
    }
    let mut words = Vec::with_capacity(bank_raw.len() / 8);
    for chunk in bank_raw.chunks_exact(8) {
        let arr: [u8; 8] = chunk
            .try_into()
            .map_err(|_| cursor.corrupt("bank", "word read".to_string()))?;
        words.push(u64::from_le_bytes(arr));
    }
    let bank = BitMatrix::from_words(n_rows, dim, words)
        .map_err(|e| cursor.corrupt("bank", e.to_string()))?;
    cursor.expect_exhausted()?;

    Ok(ShardRecord {
        shard_index,
        n_shards,
        labels,
        bank,
    })
}

/// Reads and fully validates the class-accumulator file.
pub fn read_accums(path: &Path) -> Result<ClassAccumulators, ServeError> {
    let _span = crate::obs::span("serve/snapshot_load");
    check_load_seam()?;
    let bytes = fs::read(path).map_err(|e| ServeError::io(path, &e))?;
    let mut cursor = open_container(path, &bytes)?;
    let payload = cursor.take_section(TAG_ACCUMS, "accums")?;
    cursor.expect_exhausted()?;

    let mut inner = Cursor {
        bytes: payload,
        pos: 0,
        path,
    };
    let dim_raw = inner.take_u64("accums")?;
    let n_classes_raw = inner.take_u64("accums")?;
    let dim = usize::try_from(dim_raw)
        .ok()
        .and_then(|d| Dim::try_new(d).ok())
        .ok_or_else(|| inner.corrupt("accums", format!("impossible dimensionality {dim_raw}")))?;
    let n_classes = usize::try_from(n_classes_raw)
        .map_err(|_| inner.corrupt("accums", format!("impossible class count {n_classes_raw}")))?;
    // Checked: the class count is corruption controlled (see the labels
    // check in `read_shard`).
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
    ClassAccumulators::from_parts(dim, ones, totals).map_err(|e| ServeError::Corrupt {
        path: path.display().to_string(),
        section: "accums",
        detail: e.to_string(),
    })
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
            n_shards: 4,
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
        meta.extend_from_slice(&60u64.to_le_bytes());
        meta.extend_from_slice(&shard.shard_index.to_le_bytes());
        meta.extend_from_slice(&shard.n_shards.to_le_bytes());
        let labels: Vec<u8> = shard.labels.iter().flat_map(|l| l.to_le_bytes()).collect();
        let bank: Vec<u8> = shard
            .bank
            .raw_words()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        assert!(bank.len() > CHUNK_BYTES);
        let expected = whole_file_encoding(
            1,
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
        assert_eq!(read_accums(&path).unwrap(), acc);

        let (reopened, report) = crate::store::HvStore::open(&dir).unwrap();
        assert!(report.accumulators_recovered);
        let recovered = reopened.accumulators().unwrap();
        assert_eq!(recovered, &acc);
        assert_eq!(
            recovered.prototype(0).unwrap(),
            &BinaryHypervector::ones(Dim::new(70))
        );
        assert_eq!(
            recovered.prototype(1).unwrap(),
            &BinaryHypervector::zeros(Dim::new(70))
        );
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
            acc.grow(i % 2);
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

    #[test]
    fn version_1_snapshots_still_read() {
        // v2 changed nothing about the shard layout; a file stamped v1
        // must parse identically, and a future version must stay typed.
        let dir = scratch_dir("versions");
        let shard = sample_shard(100, 4, 31);
        let path = dir.join("v1.hfex");
        write_shard(&path, &shard).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Unchanged-layout files are stamped v1 natively, so a rollback
        // to a pre-v2 build (which rejects version != 1) can still read
        // every shard this build writes.
        assert_eq!(bytes[8..12], 1u32.to_le_bytes());
        assert_eq!(read_shard(&path).unwrap(), shard);
        bytes[8..12].copy_from_slice(&VERSION.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_shard(&path).unwrap(), shard);

        bytes[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_shard(&path).unwrap_err(),
            ServeError::UnsupportedVersion { found, .. } if found == VERSION + 1
        ));

        // The accumulator writer makes the same rollback promise; only
        // the selection file (older builds never open it) carries v2.
        let mut acc = ClassAccumulators::new(Dim::new(32));
        acc.grow(0);
        let acc_path = dir.join(ACCUMS_FILE_NAME);
        write_accums(&acc_path, &acc).unwrap();
        assert_eq!(fs::read(&acc_path).unwrap()[8..12], 1u32.to_le_bytes());
        let sel_path = dir.join(SELECTION_FILE_NAME);
        let selection = BitSelection::random(Dim::new(64), 16, 3).unwrap();
        write_selection(&sel_path, &selection).unwrap();
        assert_eq!(fs::read(&sel_path).unwrap()[8..12], VERSION.to_le_bytes());
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
        assert!(matches!(
            write_shard(&dir.join("x.hfex"), &shard).unwrap_err(),
            ServeError::ShardConflict { .. }
        ));
        let mut shard = sample_shard(64, 4, 22);
        shard.shard_index = 9;
        assert!(matches!(
            write_shard(&dir.join("x.hfex"), &shard).unwrap_err(),
            ServeError::ShardConflict { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
