//! The record file format and the log-structured [`DiskStore`] over it.
//!
//! See the [crate-level documentation](crate) for the byte-level layout,
//! the versioning contract and when a flush appends or compacts. This
//! module owns the mechanics: the one record encoder, the one
//! resynchronising corrupt-tolerant decode loop, the on-disk offset index,
//! appends, compaction by atomic rename, and the LRU byte budget.

use std::collections::HashMap;
use std::fs::{File, Metadata, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// File magic: the first four bytes of every store file.
pub const FILE_MAGIC: [u8; 4] = *b"ISLP";

/// Container format version. Bumping it (a layout change in *this* module)
/// invalidates every existing store file wholesale.
pub const FORMAT_VERSION: u32 = 1;

/// Per-record sync marker. Decode resynchronises on this word after a
/// corrupt record, so one flipped byte costs one record, not the file.
pub const REC_MAGIC: [u8; 4] = *b"\xC0\xDE\x0D\x0A";

/// Fixed per-record framing overhead: magic + body length + checksum.
pub const RECORD_OVERHEAD: usize = 4 + 4 + 8;

/// File header: magic, format version, app version.
const HEADER_LEN: usize = 4 + 4 + 8;

/// Fixed body prefix: kind, stamp, key length.
const BODY_PREFIX: usize = 1 + 8 + 4;

const MAX_BODY: usize = 1 << 30;

/// FNV-1a over `bytes` — the per-record checksum. Stable, dependency-free
/// and byte-order-independent; corruption detection, not cryptography.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Bytes a record with these key and value lengths occupies on disk,
/// framing included.
fn record_size(key_len: usize, value_len: usize) -> u64 {
    (RECORD_OVERHEAD + BODY_PREFIX + key_len + value_len) as u64
}

/// One stored record: an opaque `(kind, key) → value` binding plus the
/// logical access stamp the LRU byte budget orders evictions by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// Artifact-kind discriminant (the codec layered on top assigns them).
    pub kind: u8,
    /// Logical access stamp: larger = more recently used.
    pub stamp: u64,
    /// Encoded content key.
    pub key: Vec<u8>,
    /// Encoded artifact payload.
    pub value: Vec<u8>,
}

impl RawRecord {
    /// Bytes this record occupies on disk, framing included.
    pub fn disk_size(&self) -> usize {
        record_size(self.key.len(), self.value.len()) as usize
    }
}

/// What one [`load_bytes`]/[`DiskStore::open`] observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Records that decoded cleanly (duplicate keys resolved last-wins).
    pub records: Vec<RawRecord>,
    /// Corrupt records skipped (bad magic runs, bad lengths, checksum
    /// mismatches). Never a panic: corruption degrades to a cold cache.
    pub skipped_corrupt: usize,
    /// Whether a version mismatch invalidated the file wholesale.
    pub invalidated: bool,
    /// Size of the file the records came from, bytes.
    pub bytes_on_disk: u64,
}

/// Append one framed, checksummed record to `out`. This is the only
/// record encoder: whole files ([`save_bytes`], the compaction path) and
/// the segments [`DiskStore::flush`] appends are both built with it.
pub fn encode_record(out: &mut Vec<u8>, kind: u8, stamp: u64, key: &[u8], value: &[u8]) {
    let body_len = BODY_PREFIX + key.len() + value.len();
    out.reserve(RECORD_OVERHEAD + body_len);
    out.extend_from_slice(&REC_MAGIC);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    let body_at = out.len();
    out.push(kind);
    out.extend_from_slice(&stamp.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let sum = fnv1a(&out[body_at..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Encode a whole store file: header then every record, framed and
/// checksummed. The inverse of [`load_bytes`].
pub fn save_bytes(app_version: u64, records: &[RawRecord]) -> Vec<u8> {
    let total: usize = records.iter().map(RawRecord::disk_size).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + total);
    out.extend_from_slice(&FILE_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&app_version.to_le_bytes());
    for rec in records {
        encode_record(&mut out, rec.kind, rec.stamp, &rec.key, &rec.value);
    }
    out
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

/// Scan forward from `from` for the next [`REC_MAGIC`], the resync point
/// after a corrupt record.
fn next_magic(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len().saturating_sub(REC_MAGIC.len() - 1)).find(|&i| bytes[i..i + 4] == REC_MAGIC)
}

/// A checksum-verified record found in an image, borrowed from it.
struct Framed<'a> {
    /// Where the record's magic starts.
    offset: usize,
    /// Bytes the record spans, framing included.
    len: usize,
    kind: u8,
    stamp: u64,
    key: &'a [u8],
    value: &'a [u8],
}

/// What starts at one position of an image.
enum Frame<'a> {
    /// A well-formed record.
    Record(Framed<'a>),
    /// Checksum-valid framing around a body whose key length does not fit
    /// it (a codec mismatch), `len` bytes long: one corrupt record.
    BadBody(usize),
    /// No valid record starts here: resynchronise at the next marker.
    Broken,
}

fn frame_at(bytes: &[u8], pos: usize) -> Frame<'_> {
    if bytes.len() - pos < RECORD_OVERHEAD || bytes[pos..pos + 4] != REC_MAGIC {
        return Frame::Broken;
    }
    let body_len = read_u32(bytes, pos + 4).unwrap_or(u32::MAX) as usize;
    let body_at = pos + 8;
    let framed = body_len <= MAX_BODY
        && body_at + body_len + 8 <= bytes.len()
        && read_u64(bytes, body_at + body_len) == Some(fnv1a(&bytes[body_at..body_at + body_len]));
    if !framed {
        return Frame::Broken;
    }
    let len = RECORD_OVERHEAD + body_len;
    let body = &bytes[body_at..body_at + body_len];
    if body.len() < BODY_PREFIX {
        return Frame::BadBody(len);
    }
    let key_len = read_u32(body, 9).expect("body prefix checked") as usize;
    if key_len > body.len() - BODY_PREFIX {
        return Frame::BadBody(len);
    }
    Frame::Record(Framed {
        offset: pos,
        len,
        kind: body[0],
        stamp: read_u64(body, 1).expect("body prefix checked"),
        key: &body[BODY_PREFIX..BODY_PREFIX + key_len],
        value: &body[BODY_PREFIX + key_len..],
    })
}

/// The one decode loop, shared by [`load_bytes`] and the index scan of
/// [`DiskStore::open`]. Hands every checksum-verified record to `found`
/// in file order (a later duplicate key supersedes an earlier one) and
/// returns how many corrupt runs it skipped, or `None` when the header's
/// magic or versions do not match `app_version` (invalid wholesale).
/// **Never panics on hostile bytes.**
fn scan<'a>(bytes: &'a [u8], app_version: u64, mut found: impl FnMut(Framed<'a>)) -> Option<usize> {
    if bytes.len() < HEADER_LEN
        || bytes[..4] != FILE_MAGIC
        || read_u32(bytes, 4) != Some(FORMAT_VERSION)
        || read_u64(bytes, 8) != Some(app_version)
    {
        return None;
    }
    let mut skipped = 0;
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        match frame_at(bytes, pos) {
            Frame::Record(rec) => {
                pos += rec.len;
                found(rec);
            }
            Frame::BadBody(len) => {
                skipped += 1;
                pos += len;
            }
            // Not a record start: corruption, a torn tail or trailing
            // garbage. Count one skip for the whole run and resync.
            Frame::Broken => {
                skipped += 1;
                match next_magic(bytes, pos + 1) {
                    Some(next) => pos = next,
                    None => break,
                }
            }
        }
    }
    Some(skipped)
}

/// Decode a store file image. **Never panics on hostile bytes** — the
/// persist fuzz mode bit-flips real files through here. Corrupt records
/// are skipped and counted; a header whose magic or version does not match
/// `app_version` yields an empty, `invalidated` report (the wholesale
/// invalidation contract).
pub fn load_bytes(bytes: &[u8], app_version: u64) -> LoadReport {
    let mut records: Vec<RawRecord> = Vec::new();
    let mut by_key: HashMap<(u8, &[u8]), usize> = HashMap::new();
    let scanned = scan(bytes, app_version, |rec| {
        let owned = RawRecord {
            kind: rec.kind,
            stamp: rec.stamp,
            key: rec.key.to_vec(),
            value: rec.value.to_vec(),
        };
        match by_key.entry((rec.kind, rec.key)) {
            std::collections::hash_map::Entry::Occupied(e) => records[*e.get()] = owned,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(records.len());
                records.push(owned);
            }
        }
    });
    LoadReport {
        records,
        skipped_corrupt: scanned.unwrap_or(0),
        invalidated: scanned.is_none(),
        bytes_on_disk: bytes.len() as u64,
    }
}

/// Drop least-recently-stamped records until the encoded file fits
/// `byte_budget` (header included). Returns how many records were evicted.
/// A budget smaller than the header alone evicts everything.
pub fn evict_lru(records: &mut Vec<RawRecord>, byte_budget: u64) -> usize {
    let mut total: u64 =
        HEADER_LEN as u64 + records.iter().map(|r| r.disk_size() as u64).sum::<u64>();
    if total <= byte_budget {
        return 0;
    }
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| records[i].stamp);
    let mut drop_idx = Vec::new();
    for i in order {
        if total <= byte_budget {
            break;
        }
        total -= records[i].disk_size() as u64;
        drop_idx.push(i);
    }
    let evicted = drop_idx.len();
    drop_idx.sort_unstable_by(|a, b| b.cmp(a));
    for i in drop_idx {
        records.swap_remove(i);
    }
    evicted
}

/// Counters of one [`DiskStore`] — the disk tier's side of the pipeline's
/// hit/miss evidence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Lookups served from a stored record.
    pub hits: u64,
    /// Lookups that found no record (the artifact must be built cold).
    pub misses: u64,
    /// Corrupt records skipped: framing/checksum failures at load, records
    /// whose bytes failed re-verification when read back, and records
    /// whose payload later failed to decode.
    pub skipped_corrupt: u64,
    /// Size of the store file at the last load or flush, bytes. Appended
    /// segments count; superseded records stay in it until compaction.
    pub bytes_on_disk: u64,
    /// Records currently held.
    pub records: u64,
    /// Records evicted by the LRU byte budget across all flushes.
    pub evicted: u64,
    /// Whether the on-disk file was invalidated wholesale by a version
    /// mismatch at open.
    pub invalidated: bool,
}

/// What one [`DiskStore::flush`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Records written: the appended segment's records, or every live
    /// record when the flush compacted.
    pub records: usize,
    /// Bytes this flush wrote: the appended segment, or the whole
    /// rewritten file (header included) when it compacted. The file's
    /// size is [`DiskStats::bytes_on_disk`].
    pub bytes: u64,
    /// Records evicted by the byte budget (only a compaction evicts).
    pub evicted: usize,
    /// Whether anything was written at all (`false` = store was clean).
    pub wrote: bool,
    /// Whether the flush compacted (rewrote the whole file and renamed it
    /// into place) instead of appending a segment.
    pub compacted: bool,
}

/// Where the current bytes of one live record are.
#[derive(Debug)]
enum Slot {
    /// Flushed: the framed record at `offset`, `len` bytes long, in the
    /// store file.
    OnDisk { offset: u64, len: u64 },
    /// Inserted or stamp-refreshed since the last flush, which writes it.
    Pending(Vec<u8>),
}

#[derive(Debug)]
struct Entry {
    stamp: u64,
    slot: Slot,
}

impl Entry {
    fn disk_size(&self, key: &[u8]) -> u64 {
        match &self.slot {
            Slot::OnDisk { len, .. } => *len,
            Slot::Pending(value) => record_size(key.len(), value.len()),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// The offset index: `(kind, key) → (stamp, where the bytes are)`.
    map: HashMap<(u8, Vec<u8>), Entry>,
    clock: u64,
    /// Whether the next flush has anything to write.
    dirty: bool,
    /// Whether the next flush must compact instead of appending.
    compact: bool,
    /// Read + append handle on the file the on-disk offsets point into.
    file: Option<File>,
    /// That file's length as this store last read or wrote it.
    file_len: u64,
    evicted: u64,
}

/// Read exactly `buf.len()` bytes at `offset` without moving any cursor.
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom};
        let mut file = file;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

/// Whether two metadata snapshots describe the same file.
#[cfg(unix)]
fn same_file(a: &Metadata, b: &Metadata) -> bool {
    use std::os::unix::fs::MetadataExt;
    a.dev() == b.dev() && a.ino() == b.ino()
}

/// Whether two metadata snapshots describe the same file (length is the
/// only identity check off unix).
#[cfg(not(unix))]
fn same_file(_: &Metadata, _: &Metadata) -> bool {
    true
}

fn open_log(path: &Path) -> io::Result<File> {
    OpenOptions::new().read(true).append(true).open(path)
}

impl Inner {
    /// The value of a live record. A flushed record is read back from the
    /// file and its magic, length, checksum, kind and key re-verified;
    /// `None` when the bytes there are no longer that record.
    fn value_of(&self, kind: u8, key: &[u8], entry: &Entry) -> Option<Vec<u8>> {
        let (offset, len) = match entry.slot {
            Slot::Pending(ref value) => return Some(value.clone()),
            Slot::OnDisk { offset, len } => (offset, len),
        };
        let mut buf = vec![0u8; usize::try_from(len).ok()?];
        read_exact_at(self.file.as_ref()?, &mut buf, offset).ok()?;
        match frame_at(&buf, 0) {
            Frame::Record(rec) if rec.len == buf.len() && rec.kind == kind && rec.key == key => {
                Some(rec.value.to_vec())
            }
            _ => None,
        }
    }

    /// Forget `(kind, key)`. Its bytes stay in the file, so the next flush
    /// must compact.
    fn discard(&mut self, kind: u8, key: &[u8]) {
        if self.map.remove(&(kind, key.to_vec())).is_some() {
            self.compact = true;
            self.dirty = true;
        }
    }

    /// Whether the file at `path` is still the one this store last wrote:
    /// same file, same length. Anything else (a missing file, another
    /// writer's rename or append) means the offsets may be stale.
    fn file_is_current(&self, path: &Path) -> bool {
        let (Some(file), Ok(on_disk)) = (&self.file, std::fs::metadata(path)) else {
            return false;
        };
        on_disk.len() == self.file_len
            && file.metadata().is_ok_and(|held| same_file(&held, &on_disk))
    }

    /// Append every pending record as one segment (`segment` bytes) in
    /// one `write_all`, then index the records at their new offsets.
    fn append(&mut self, segment: u64) -> io::Result<FlushReport> {
        let mut pending: Vec<(&(u8, Vec<u8>), &Entry)> = self
            .map
            .iter()
            .filter(|(_, e)| matches!(e.slot, Slot::Pending(_)))
            .collect();
        // Deterministic segment order (by kind, then key).
        pending.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut bytes = Vec::with_capacity(segment as usize);
        let mut placed = Vec::with_capacity(pending.len());
        for (map_key, entry) in pending {
            if let Slot::Pending(value) = &entry.slot {
                let at = bytes.len();
                encode_record(&mut bytes, map_key.0, entry.stamp, &map_key.1, value);
                placed.push((map_key.clone(), at as u64, (bytes.len() - at) as u64));
            }
        }
        let file = self
            .file
            .as_mut()
            .expect("append only runs on a current file");
        if let Err(e) = file.write_all(&bytes) {
            // A partial write may have left a torn record: rewrite.
            self.compact = true;
            return Err(e);
        }
        for (map_key, at, len) in &placed {
            let entry = self.map.get_mut(map_key).expect("pending record");
            entry.slot = Slot::OnDisk {
                offset: self.file_len + at,
                len: *len,
            };
        }
        self.file_len += bytes.len() as u64;
        self.dirty = false;
        Ok(FlushReport {
            records: placed.len(),
            bytes: bytes.len() as u64,
            evicted: 0,
            wrote: true,
            compacted: false,
        })
    }
}

/// A mutable, thread-safe, log-structured `(kind, key) → value` store over
/// one record file.
///
/// [`open`](DiskStore::open) scans the file into an offset index
/// `(kind, key) → (stamp, offset, len)`; values stay on disk and are read
/// back (and re-verified) on [`lookup`](DiskStore::lookup). Inserts and
/// LRU stamp refreshes are held in memory until [`flush`](DiskStore::flush)
/// appends them as one segment — or, when the file must be rewritten,
/// compacts the whole store by write-then-rename. After a flush no value
/// bytes stay in memory.
///
/// The store is byte-oriented — it knows nothing about the artifacts
/// themselves. The pipeline layers codecs on top and owns the `kind`
/// discriminants and the `app_version` (its codec version). One store
/// should own a file: a second writer's changes are detected and
/// overwritten by the next compaction, never appended after.
#[derive(Debug)]
pub struct DiskStore {
    path: PathBuf,
    app_version: u64,
    byte_budget: Option<u64>,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    skipped: AtomicU64,
    bytes_on_disk: AtomicU64,
    invalidated: bool,
}

impl DiskStore {
    /// Open (or create) the store at `path` under codec version
    /// `app_version`, indexing whatever survives the corruption checks. A
    /// missing file is an empty store; a version-mismatched file is an
    /// empty store with [`DiskStats::invalidated`] set; corrupt records
    /// (a torn append included) are skipped and counted, and the next
    /// flush compacts them away. None of these are errors — only real I/O
    /// failures (permissions, unreadable directory) are.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the file exists but cannot be opened for reading
    /// and appending, or cannot be read.
    pub fn open(path: impl AsRef<Path>, app_version: u64) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let (file, bytes) = match open_log(&path) {
            Ok(mut file) => {
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes)?;
                (Some(file), bytes)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (None, Vec::new()),
            Err(e) => return Err(e),
        };
        let mut inner = Inner {
            file_len: bytes.len() as u64,
            ..Inner::default()
        };
        let scanned = scan(&bytes, app_version, |rec| {
            inner.clock = inner.clock.max(rec.stamp.saturating_add(1));
            let slot = Slot::OnDisk {
                offset: rec.offset as u64,
                len: rec.len as u64,
            };
            inner.map.insert(
                (rec.kind, rec.key.to_vec()),
                Entry {
                    stamp: rec.stamp,
                    slot,
                },
            );
        });
        let invalidated = file.is_some() && scanned.is_none();
        let skipped = scanned.unwrap_or(0);
        inner.compact = file.is_none() || invalidated || skipped > 0;
        inner.dirty = skipped > 0;
        inner.file = file;
        Ok(DiskStore {
            path,
            app_version,
            byte_budget: None,
            inner: Mutex::new(inner),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped: AtomicU64::new(skipped as u64),
            bytes_on_disk: AtomicU64::new(bytes.len() as u64),
            invalidated,
        })
    }

    /// Cap the file size; a [`flush`](DiskStore::flush) whose append would
    /// exceed the budget compacts instead, evicting least-recently-used
    /// records down to the budget.
    pub fn with_byte_budget(mut self, byte_budget: u64) -> Self {
        self.byte_budget = Some(byte_budget);
        self
    }

    /// The file this store publishes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The codec version the store was opened under.
    pub fn app_version(&self) -> u64 {
        self.app_version
    }

    /// Look `(kind, key)` up, refreshing its LRU stamp on a hit (the
    /// refreshed record is rewritten at the next flush). A flushed record
    /// is read back from the file and re-verified; one that fails is
    /// discarded, counted as corrupt and reported as a miss. Counts a hit
    /// or a miss either way.
    pub fn lookup(&self, kind: u8, key: &[u8]) -> Option<Vec<u8>> {
        let mut guard = self.inner.lock().expect("disk store");
        let inner = &mut *guard;
        let map_key = (kind, key.to_vec());
        let found = inner
            .map
            .get(&map_key)
            .map(|entry| inner.value_of(kind, key, entry));
        let value = match found {
            Some(Some(value)) => value,
            Some(None) => {
                inner.discard(kind, key);
                self.skipped.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let stamp = inner.clock;
        inner.clock += 1;
        inner.map.insert(
            map_key,
            Entry {
                stamp,
                slot: Slot::Pending(value.clone()),
            },
        );
        inner.dirty = true;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Bind `(kind, key)` to `value` with a fresh stamp (replacing any
    /// previous binding) and mark the store dirty.
    pub fn insert(&self, kind: u8, key: Vec<u8>, value: Vec<u8>) {
        let mut inner = self.inner.lock().expect("disk store");
        let stamp = inner.clock;
        inner.clock += 1;
        inner.map.insert(
            (kind, key),
            Entry {
                stamp,
                slot: Slot::Pending(value),
            },
        );
        inner.dirty = true;
    }

    /// Drop a record whose payload failed to decode, counting it as
    /// corrupt: the caller falls back to a cold build, and the next flush
    /// compacts so the bad bytes are not republished.
    pub fn discard_corrupt(&self, kind: u8, key: &[u8]) {
        self.inner.lock().expect("disk store").discard(kind, key);
        self.skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether `(kind, key)` is bound, without touching stamps or
    /// counters — a neutral probe for write-if-absent sync paths.
    pub fn contains(&self, kind: u8, key: &[u8]) -> bool {
        self.inner
            .lock()
            .expect("disk store")
            .map
            .contains_key(&(kind, key.to_vec()))
    }

    /// Every `(key, value)` of `kind`, sorted by key, without touching
    /// stamps or counters — the persistence layer's warm-open enumeration
    /// (loaded records are neither hits nor misses until requested).
    /// Flushed records are read back and re-verified like
    /// [`lookup`](DiskStore::lookup) does; failures are discarded and
    /// counted as corrupt.
    pub fn entries_of_kind(&self, kind: u8) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut guard = self.inner.lock().expect("disk store");
        let inner = &mut *guard;
        let mut out = Vec::new();
        let mut corrupt = Vec::new();
        for ((k, key), entry) in &inner.map {
            if *k != kind {
                continue;
            }
            match inner.value_of(kind, key, entry) {
                Some(value) => out.push((key.clone(), value)),
                None => corrupt.push(key.clone()),
            }
        }
        for key in corrupt {
            inner.discard(kind, &key);
            self.skipped.fetch_add(1, Ordering::Relaxed);
        }
        drop(guard);
        out.sort();
        out
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("disk store").map.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether an in-memory mutation has not been flushed yet.
    pub fn is_dirty(&self) -> bool {
        self.inner.lock().expect("disk store").dirty
    }

    /// Make every insert and stamp refresh since the last flush durable.
    /// A clean store writes nothing.
    ///
    /// Normally the pending records are **appended** as one segment (one
    /// `write_all` on an append-mode handle) and the flush costs what it
    /// writes. The flush **compacts** instead — rewrites every live record
    /// to a sibling temp file and `rename`s it over `path` — when the file
    /// is missing, was opened with corrupt or version-mismatched bytes, a
    /// record was discarded, the append would exceed the byte budget
    /// (compaction then evicts least-recently-used records), the file
    /// would exceed twice its live bytes, or the file on disk is no longer
    /// the one (or the length) this store last wrote. [`FlushReport`] says
    /// which happened and how many bytes were written.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the append, the temp write or the rename. A
    /// failed compaction leaves the previous file untouched; a failed
    /// append may leave a torn tail, which the next open skips and counts
    /// and the next flush compacts away. Pending records stay pending.
    pub fn flush(&self) -> io::Result<FlushReport> {
        let mut guard = self.inner.lock().expect("disk store");
        let inner = &mut *guard;
        if !inner.dirty {
            return Ok(FlushReport::default());
        }
        let (mut live, mut segment) = (HEADER_LEN as u64, 0);
        for ((_, key), entry) in &inner.map {
            let size = entry.disk_size(key);
            live += size;
            if matches!(entry.slot, Slot::Pending(_)) {
                segment += size;
            }
        }
        let grown = inner.file_len + segment;
        let append = !inner.compact
            && grown <= 2 * live
            && self.byte_budget.is_none_or(|budget| grown <= budget)
            && inner.file_is_current(&self.path);
        let report = if append {
            inner.append(segment)
        } else {
            self.compact(inner)
        }?;
        self.bytes_on_disk.store(inner.file_len, Ordering::Relaxed);
        Ok(report)
    }

    /// Rewrite the whole file from the live records: apply the byte
    /// budget, write a sibling temp file and `rename` it over the path,
    /// then index the records at their new offsets. Records whose on-disk
    /// bytes fail re-verification are dropped and counted as corrupt.
    fn compact(&self, inner: &mut Inner) -> io::Result<FlushReport> {
        let path = self.path.as_path();
        let mut records = Vec::with_capacity(inner.map.len());
        let mut unreadable = Vec::new();
        for ((kind, key), entry) in &inner.map {
            match inner.value_of(*kind, key, entry) {
                Some(value) => records.push(RawRecord {
                    kind: *kind,
                    stamp: entry.stamp,
                    key: key.clone(),
                    value,
                }),
                None => unreadable.push((*kind, key.clone())),
            }
        }
        for map_key in &unreadable {
            inner.map.remove(map_key);
        }
        self.skipped
            .fetch_add(unreadable.len() as u64, Ordering::Relaxed);
        let evicted = self
            .byte_budget
            .map_or(0, |budget| evict_lru(&mut records, budget));
        // Deterministic record order (by kind, then key) so identical
        // stores produce identical files.
        records.sort_unstable_by(|a, b| (a.kind, &a.key).cmp(&(b.kind, &b.key)));
        let bytes = save_bytes(self.app_version, &records);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &bytes)?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        inner.file = Some(open_log(path)?);
        inner.file_len = bytes.len() as u64;
        let mut offset = HEADER_LEN as u64;
        inner.map = records
            .into_iter()
            .map(|rec| {
                let len = rec.disk_size() as u64;
                let slot = Slot::OnDisk { offset, len };
                offset += len;
                (
                    (rec.kind, rec.key),
                    Entry {
                        stamp: rec.stamp,
                        slot,
                    },
                )
            })
            .collect();
        inner.evicted += evicted as u64;
        inner.dirty = false;
        inner.compact = false;
        Ok(FlushReport {
            records: inner.map.len(),
            bytes: bytes.len() as u64,
            evicted,
            wrote: true,
            compacted: true,
        })
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> DiskStats {
        let inner = self.inner.lock().expect("disk store");
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            skipped_corrupt: self.skipped.load(Ordering::Relaxed),
            bytes_on_disk: self.bytes_on_disk.load(Ordering::Relaxed),
            records: inner.map.len() as u64,
            evicted: inner.evicted,
            invalidated: self.invalidated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: u8, stamp: u64, key: &[u8], value: &[u8]) -> RawRecord {
        RawRecord {
            kind,
            stamp,
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    #[test]
    fn file_round_trip() {
        let records = vec![
            rec(1, 0, b"alpha", b"payload-a"),
            rec(2, 1, b"beta", &[0u8; 100]),
            rec(1, 2, b"", b""),
        ];
        let bytes = save_bytes(7, &records);
        let report = load_bytes(&bytes, 7);
        assert_eq!(report.records, records);
        assert_eq!(report.skipped_corrupt, 0);
        assert!(!report.invalidated);
        assert_eq!(report.bytes_on_disk, bytes.len() as u64);
    }

    #[test]
    fn version_bump_invalidates_wholesale() {
        let bytes = save_bytes(7, &[rec(1, 0, b"k", b"v")]);
        let report = load_bytes(&bytes, 8);
        assert!(report.invalidated);
        assert!(report.records.is_empty());
        assert_eq!(report.skipped_corrupt, 0);
    }

    #[test]
    fn every_single_byte_flip_is_survivable() {
        let records = vec![
            rec(1, 0, b"alpha", b"payload-a"),
            rec(2, 1, b"beta", b"payload-b"),
            rec(3, 2, b"gamma", b"payload-c"),
        ];
        let clean = save_bytes(3, &records);
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x41;
            let report = load_bytes(&bytes, 3); // must not panic
            if report.invalidated {
                assert!(i < 16, "only a header flip may invalidate (flip at {i})");
                continue;
            }
            // Whatever survives must be one of the original records.
            for r in &report.records {
                assert!(
                    records.contains(r) || report.skipped_corrupt > 0,
                    "flip at {i} fabricated a record"
                );
            }
            assert!(
                report.records.len() + report.skipped_corrupt >= records.len() - 1,
                "flip at {i} lost more than one record silently"
            );
        }
    }

    #[test]
    fn corrupt_middle_record_is_skipped_and_counted() {
        let records = vec![
            rec(1, 0, b"first", b"aaaa"),
            rec(1, 1, b"second", b"bbbb"),
            rec(1, 2, b"third", b"cccc"),
        ];
        let mut bytes = save_bytes(1, &records);
        // Flip one payload byte of the middle record (its checksum breaks).
        let mid = 16 + records[0].disk_size() + RECORD_OVERHEAD + 14;
        bytes[mid] ^= 0xFF;
        let report = load_bytes(&bytes, 1);
        assert_eq!(report.skipped_corrupt, 1);
        assert_eq!(report.records.len(), 2);
        assert!(report.records.contains(&records[0]));
        assert!(report.records.contains(&records[2]));
    }

    #[test]
    fn truncated_file_keeps_prefix() {
        let records = vec![rec(1, 0, b"keep", b"x"), rec(1, 1, b"lost", b"y")];
        let bytes = save_bytes(1, &records);
        let cut = &bytes[..bytes.len() - 5];
        let report = load_bytes(cut, 1);
        assert_eq!(report.records, vec![records[0].clone()]);
        assert_eq!(report.skipped_corrupt, 1);
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let records = vec![rec(1, 0, b"k", b"old"), rec(1, 5, b"k", b"new")];
        let bytes = save_bytes(1, &records);
        let report = load_bytes(&bytes, 1);
        assert_eq!(report.records, vec![rec(1, 5, b"k", b"new")]);
    }

    #[test]
    fn lru_eviction_drops_oldest_stamps_first() {
        let mut records = vec![
            rec(1, 10, b"newest", &[0u8; 64]),
            rec(1, 1, b"oldest", &[0u8; 64]),
            rec(1, 5, b"middle", &[0u8; 64]),
        ];
        let full: u64 = 16 + records.iter().map(|r| r.disk_size() as u64).sum::<u64>();
        let one = records[0].disk_size() as u64;
        let evicted = evict_lru(&mut records, full - one);
        assert_eq!(evicted, 1);
        assert!(records.iter().all(|r| r.key != b"oldest"));
        let evicted = evict_lru(&mut records, 0);
        assert_eq!(evicted, 2);
        assert!(records.is_empty());
    }

    #[test]
    fn disk_store_end_to_end() {
        let dir = std::env::temp_dir().join(format!("isl-persist-test-{}", std::process::id()));
        let path = dir.join("store.islstore");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(&path);

        let store = DiskStore::open(&path, 9).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.lookup(1, b"k"), None);
        store.insert(1, b"k".to_vec(), b"v".to_vec());
        let flushed = store.flush().unwrap();
        assert!(flushed.wrote);
        assert_eq!(flushed.records, 1);
        // Clean flush is a no-op.
        assert!(!store.flush().unwrap().wrote);

        let reopened = DiskStore::open(&path, 9).unwrap();
        assert_eq!(reopened.lookup(1, b"k"), Some(b"v".to_vec()));
        let stats = reopened.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
        assert!(stats.bytes_on_disk > 0);

        // Version bump: wholesale invalidation, not an error.
        let bumped = DiskStore::open(&path, 10).unwrap();
        assert!(bumped.is_empty());
        assert!(bumped.stats().invalidated);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discard_corrupt_counts_and_removes() {
        let dir = std::env::temp_dir().join(format!("isl-persist-disc-{}", std::process::id()));
        let path = dir.join("store.islstore");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(&path);
        let store = DiskStore::open(&path, 1).unwrap();
        store.insert(4, b"bad".to_vec(), b"undecodable".to_vec());
        store.discard_corrupt(4, b"bad");
        assert_eq!(store.lookup(4, b"bad"), None);
        assert_eq!(store.stats().skipped_corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh per-test directory and a store path inside it.
    fn scratch_path(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("isl-persist-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.islstore")
    }

    /// Every live `(kind, key) → value` of `store`, through the read-back
    /// path, without touching stamps.
    fn contents(store: &DiskStore) -> Vec<(u8, Vec<u8>, Vec<u8>)> {
        (0..8u8)
            .flat_map(|kind| {
                store
                    .entries_of_kind(kind)
                    .into_iter()
                    .map(move |(k, v)| (kind, k, v))
            })
            .collect()
    }

    fn no_value_resident(store: &DiskStore) -> bool {
        let inner = store.inner.lock().unwrap();
        inner
            .map
            .values()
            .all(|e| matches!(e.slot, Slot::OnDisk { .. }))
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn torn_append_keeps_whole_records_and_compacts_on_next_flush() {
        let path = scratch_path("torn");
        let base = DiskStore::open(&path, 5).unwrap();
        for key in [&b"a"[..], b"b", b"c"] {
            base.insert(1, key.to_vec(), [key, &b"-base-value"[..]].concat());
        }
        assert!(
            base.flush().unwrap().compacted,
            "first flush creates the file"
        );
        let base_len = file_len(&path);
        // One segment: a superseding write of `b` plus two new keys.
        base.insert(1, b"b".to_vec(), b"b-segment-value".to_vec());
        base.insert(1, b"d".to_vec(), b"d-segment-value".to_vec());
        base.insert(2, b"e".to_vec(), b"e-segment-value-longer".to_vec());
        let appended = base.flush().unwrap();
        assert!(appended.wrote && !appended.compacted, "{appended:?}");
        assert_eq!(appended.records, 3);
        let full = std::fs::read(&path).unwrap();
        assert_eq!(full.len() as u64, base_len + appended.bytes);
        let before = load_bytes(&full[..base_len as usize], 5).records;
        // Segment records in order, with their end offsets.
        let mut seg = Vec::new();
        let mut at = base_len as usize;
        while at < full.len() {
            match frame_at(&full, at) {
                Frame::Record(rec) => {
                    at += rec.len;
                    seg.push((rec.kind, rec.key.to_vec(), rec.value.to_vec(), at));
                }
                _ => panic!("segment does not decode"),
            }
        }
        assert_eq!(seg.len(), 3);
        drop(base);

        for cut in base_len as usize..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let store = DiskStore::open(&path, 5).unwrap();
            let mut expect: Vec<(u8, Vec<u8>, Vec<u8>)> = before
                .iter()
                .map(|r| (r.kind, r.key.clone(), r.value.clone()))
                .collect();
            for (kind, key, value, end) in &seg {
                if *end <= cut {
                    expect.retain(|(k, kk, _)| (k, kk) != (kind, key));
                    expect.push((*kind, key.clone(), value.clone()));
                }
            }
            expect.sort();
            assert_eq!(contents(&store), expect, "cut at {cut}");
            let torn = seg.iter().all(|s| s.3 != cut) && cut != base_len as usize;
            assert_eq!(
                store.stats().skipped_corrupt,
                u64::from(torn),
                "cut at {cut}"
            );
            let flushed = store.flush().unwrap();
            assert_eq!(flushed.compacted, torn, "cut at {cut}: {flushed:?}");
            drop(store);
            let reopened = DiskStore::open(&path, 5).unwrap();
            assert_eq!(reopened.stats().skipped_corrupt, 0, "cut at {cut}");
            assert_eq!(contents(&reopened), expect, "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn replaced_or_extended_file_forces_compaction() {
        let path = scratch_path("stale");
        let first = DiskStore::open(&path, 5).unwrap();
        first.insert(1, b"one".to_vec(), b"first-store".to_vec());
        first.flush().unwrap();

        // Another writer extends the file in place: the length moved.
        let second = DiskStore::open(&path, 5).unwrap();
        second.insert(1, b"two".to_vec(), b"second-store".to_vec());
        assert!(
            !second.flush().unwrap().compacted,
            "a current file takes the append"
        );
        first.insert(1, b"three".to_vec(), b"first-again".to_vec());
        assert!(
            first.flush().unwrap().compacted,
            "stale length must not be appended at"
        );

        // Another writer replaces the file by rename: a new file.
        let third = DiskStore::open(&path, 5).unwrap();
        third.discard_corrupt(1, b"one");
        assert!(third.flush().unwrap().compacted);
        first.insert(1, b"four".to_vec(), b"first-last".to_vec());
        let flushed = first.flush().unwrap();
        assert!(flushed.compacted, "a replaced file must not be appended to");

        // The last writer's view wins whole; nothing is torn.
        let reopened = DiskStore::open(&path, 5).unwrap();
        assert_eq!(reopened.stats().skipped_corrupt, 0);
        let keys: Vec<Vec<u8>> = contents(&reopened).into_iter().map(|(_, k, _)| k).collect();
        assert_eq!(keys, [&b"four"[..], b"one", b"three"]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn parent_written_file_serves_hits_and_accepts_appends() {
        let path = scratch_path("parent");
        let records = vec![
            rec(1, 0, b"old", b"written-whole"),
            rec(3, 1, b"other", b"x"),
        ];
        std::fs::write(&path, save_bytes(5, &records)).unwrap();
        let store = DiskStore::open(&path, 5).unwrap();
        assert_eq!(store.lookup(1, b"old"), Some(b"written-whole".to_vec()));
        store.insert(2, b"new".to_vec(), b"appended".to_vec());
        let flushed = store.flush().unwrap();
        assert!(!flushed.compacted, "{flushed:?}");
        assert_eq!(flushed.records, 2, "the refreshed hit and the insert");
        assert!(no_value_resident(&store));
        let report = load_bytes(&std::fs::read(&path).unwrap(), 5);
        assert_eq!(report.skipped_corrupt, 0);
        assert_eq!(report.records.len(), 3);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn stamp_refresh_survives_flush_and_reopen() {
        let path = scratch_path("stamp");
        let store = DiskStore::open(&path, 5).unwrap();
        for key in [&b"a"[..], b"b", b"c"] {
            store.insert(1, key.to_vec(), vec![7; 32]);
        }
        store.flush().unwrap();
        drop(store);
        let store = DiskStore::open(&path, 5).unwrap();
        assert!(store.lookup(1, b"a").is_some());
        assert!(!store.flush().unwrap().compacted);
        assert!(no_value_resident(&store));
        drop(store);
        let stamps: HashMap<Vec<u8>, u64> = load_bytes(&std::fs::read(&path).unwrap(), 5)
            .records
            .into_iter()
            .map(|r| (r.key, r.stamp))
            .collect();
        assert_eq!(stamps[&b"a"[..]], 3, "the refreshed stamp is the newest");
        assert_eq!((stamps[&b"b"[..]], stamps[&b"c"[..]]), (1, 2));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn overwrites_keep_file_within_twice_live_bytes() {
        let path = scratch_path("overwrite");
        let store = DiskStore::open(&path, 5).unwrap();
        let keys: Vec<Vec<u8>> = (0..4u8).map(|i| vec![b'k', i]).collect();
        let segment: u64 = keys.iter().map(|k| record_size(k.len(), 100)).sum();
        let live = HEADER_LEN as u64 + segment;
        let (mut appends, mut compactions) = (0, 0);
        for round in 0..40u8 {
            for key in &keys {
                store.insert(1, key.clone(), vec![round; 100]);
            }
            let flushed = store.flush().unwrap();
            if flushed.compacted {
                compactions += 1;
            } else {
                appends += 1;
            }
            let on_disk = file_len(&path);
            assert_eq!(store.stats().bytes_on_disk, on_disk);
            assert!(
                on_disk <= 2 * live + segment,
                "round {round}: {on_disk} bytes"
            );
        }
        assert!(
            appends > 0 && compactions > 1,
            "{appends} appends, {compactions} compactions"
        );
        let reopened = DiskStore::open(&path, 5).unwrap();
        assert_eq!(reopened.stats().skipped_corrupt, 0);
        for key in &keys {
            assert_eq!(reopened.lookup(1, key), Some(vec![39; 100]));
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn byte_budget_evicts_oldest_through_flush_and_survives_reopen() {
        let path = scratch_path("budget");
        let size = record_size(2, 64);
        let budget = HEADER_LEN as u64 + 3 * size;
        let store = DiskStore::open(&path, 5).unwrap().with_byte_budget(budget);
        for i in 0..5u8 {
            store.insert(1, vec![b'r', i], vec![i; 64]);
        }
        let flushed = store.flush().unwrap();
        assert!(flushed.compacted);
        assert_eq!(flushed.evicted, 2);
        assert!(file_len(&path) <= budget);
        drop(store);

        let store = DiskStore::open(&path, 5).unwrap().with_byte_budget(budget);
        let live: Vec<Vec<u8>> = contents(&store).into_iter().map(|(_, k, _)| k).collect();
        assert_eq!(live, [vec![b'r', 2], vec![b'r', 3], vec![b'r', 4]]);
        // Refresh r2, add r5: r3 is now the oldest stamp and goes first.
        assert!(store.lookup(1, &[b'r', 2]).is_some());
        store.insert(1, vec![b'r', 5], vec![5; 64]);
        let flushed = store.flush().unwrap();
        assert!(flushed.compacted && flushed.evicted == 1, "{flushed:?}");
        assert_eq!(store.stats().evicted, 1);
        drop(store);
        let store = DiskStore::open(&path, 5).unwrap();
        let live: Vec<Vec<u8>> = contents(&store).into_iter().map(|(_, k, _)| k).collect();
        assert_eq!(live, [vec![b'r', 2], vec![b'r', 4], vec![b'r', 5]]);
        assert_eq!(store.stats().skipped_corrupt, 0);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn bytes_flipped_after_open_are_caught_at_read_back() {
        let path = scratch_path("flip");
        let store = DiskStore::open(&path, 5).unwrap();
        store.insert(1, b"victim".to_vec(), vec![0x11; 48]);
        store.insert(1, b"bystander".to_vec(), vec![0x22; 48]);
        store.insert(4, b"listed".to_vec(), vec![0x33; 48]);
        store.flush().unwrap();
        drop(store);

        let store = DiskStore::open(&path, 5).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        for (value, flip) in [(0x11u8, 0x01u8), (0x33, 0x80)] {
            let at = bytes.windows(48).position(|w| w == [value; 48]).unwrap();
            bytes[at + 10] ^= flip;
        }
        std::fs::write(&path, &bytes).unwrap();

        assert_eq!(
            store.lookup(1, b"victim"),
            None,
            "a flipped record is never returned"
        );
        assert_eq!(store.lookup(1, b"bystander"), Some(vec![0x22; 48]));
        assert!(store.entries_of_kind(4).is_empty());
        let stats = store.stats();
        assert_eq!((stats.skipped_corrupt, stats.hits, stats.misses), (2, 1, 1));
        assert!(
            store.flush().unwrap().compacted,
            "a discard forces compaction"
        );
        drop(store);
        let reopened = DiskStore::open(&path, 5).unwrap();
        assert_eq!(reopened.stats().skipped_corrupt, 0);
        assert_eq!(
            contents(&reopened),
            vec![(1, b"bystander".to_vec(), vec![0x22; 48])]
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
