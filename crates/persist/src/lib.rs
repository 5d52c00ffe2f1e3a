//! Versioned, zero-dependency on-disk persistence for pipeline artifacts.
//!
//! The flow-level artifact store makes warm work nearly free *within* one
//! process; this crate is what lets that warmth survive a restart. It is a
//! deliberately dumb layer: an append-only, corruption-tolerant
//! `(kind, key) → bytes` record file plus the little-endian
//! [`ByteWriter`]/[`ByteReader`] primitives the artifact codecs (which
//! live in `isl-hls`, next to the types they encode) are written with.
//! Nothing here knows what a calibration or a certificate is.
//!
//! # On-disk record format
//!
//! A store file is a fixed header followed by zero or more framed records
//! (all integers little-endian):
//!
//! ```text
//! file   := header record*
//! header := magic "ISLP"            4 bytes   (FILE_MAGIC)
//!           format_version: u32     container layout version (FORMAT_VERSION)
//!           app_version:    u64     artifact-codec version of the writer
//! record := rec_magic C0 DE 0D 0A   4 bytes   (REC_MAGIC, the resync marker)
//!           body_len:  u32          bytes of `body`
//!           body      := kind:    u8          artifact-kind discriminant
//!                        stamp:   u64         logical LRU access stamp
//!                        key_len: u32
//!                        key:     [u8; key_len]
//!                        value:   [u8; body_len - 13 - key_len]
//!           checksum:  u64          FNV-1a over `body`
//! ```
//!
//! # Versioning and invalidation
//!
//! Two versions gate a load, and **either mismatching invalidates the file
//! wholesale** (an empty store, never a partial one):
//!
//! * `format_version` — the container layout above, owned by this crate.
//! * `app_version` — the codec version of the layer that wrote the
//!   payloads, passed to [`DiskStore::open`]. The pipeline bumps it
//!   whenever any artifact encoding changes, so stale bytes are never
//!   half-decoded.
//!
//! Invalidation is deliberate and cheap: artifacts are caches of
//! deterministic computations, so the safe response to *any* doubt about
//! the bytes is to recompute cold.
//!
//! # Corruption tolerance
//!
//! [`load_bytes`] never panics on hostile input (the `isl-fuzz persist`
//! mode bit-flips real files through it), and neither does
//! [`DiskStore::open`], whose index scan runs the same decode loop. Each
//! record is independently checksummed and framed by a sync marker: a
//! corrupt record is skipped, counted in [`LoadReport::skipped_corrupt`],
//! and decoding resynchronises at the next marker — one flipped byte
//! costs one record, not the file.
//! Payloads that pass the checksum but later fail their codec are handed
//! back via [`DiskStore::discard_corrupt`], which counts them the same way.
//!
//! # Appended segments and compaction
//!
//! A [`DiskStore`] is log-structured over this unchanged record format.
//! [`DiskStore::open`] scans the file once into an offset index,
//! `(kind, key) → (stamp, offset, len)`; values stay on disk and are read
//! back and re-verified (magic, length, checksum, kind, key) on lookup.
//! Inserts and LRU stamp refreshes (stamps advance on insertion and on
//! every [`DiskStore::lookup`] hit) wait in memory until
//! [`DiskStore::flush`] **appends** them as one segment — one `write_all`
//! on an append-mode handle — so a flush costs what it writes, not the
//! size of the store. A later copy of a key supersedes the earlier one
//! (the decoder's last-wins rule); the superseded bytes stay behind as
//! garbage.
//!
//! A flush **compacts** instead — writes every live record to a sibling
//! temp file and atomically `rename`s it into place, so readers observe
//! the old file or the new one — when:
//!
//! * the file is missing, or was opened with corrupt or version-mismatched
//!   bytes;
//! * a record was discarded (failed re-verification or its codec);
//! * the append would exceed the optional LRU byte budget
//!   ([`DiskStore::with_byte_budget`]) — compaction then evicts the
//!   least-recently-stamped records until the file fits;
//! * the file would exceed twice its live bytes (a fixed ratio);
//! * the file on disk is no longer the file, or the length, this store
//!   last wrote — another writer replaced or extended it, so appending
//!   at the remembered offsets would be wrong.
//!
//! **A crash mid-append** leaves the file as a prefix of whole segments
//! plus at most one torn record at its tail. The next open keeps every
//! whole record, skips the torn tail and counts it in
//! [`DiskStats::skipped_corrupt`]; that store's next flush compacts it
//! away. A crash mid-compaction leaves the previous file in place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod store;

pub use bytes::{ByteReader, ByteWriter, DecodeError};
pub use store::{
    encode_record, evict_lru, fnv1a, load_bytes, save_bytes, DiskStats, DiskStore, FlushReport,
    LoadReport, RawRecord, FILE_MAGIC, FORMAT_VERSION, RECORD_OVERHEAD, REC_MAGIC,
};
