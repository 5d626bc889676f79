//! The columnar store: SoA slabs, dedup index, byte codec, and the
//! thread-safe [`Warehouse`] wrapper.
//!
//! Layout follows the simulator's slab idiom (`TraceSlab`, `EntryTable`):
//! one contiguous array per column plus a validity byte per cell, with
//! strings interned into a shared pool so repeated workload/design names
//! cost four bytes per row. The file format is little-endian, versioned,
//! and headed by a catalog hash, so decoding against a changed column set
//! fails loudly instead of misreading slabs.
//!
//! The store is *logically* append-only: rows are never mutated or
//! removed, and every append is keyed by [`RunRecord::key`] against a
//! `HashMap` index, which makes re-appends no-ops. Persistence rewrites
//! the file wholesale — row counts are thousands, not billions, and a
//! single atomic rewrite keeps the format trivially seekable (fixed-width
//! slabs, mmap-friendly) without a journal.

use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::catalog::{catalog_hash, ColumnType, CATALOG};
use crate::query::{self, QueryError, QueryOutput};
use crate::record::RunRecord;
use rnuca_types::failpoint;
use rnuca_types::Fnv64;

/// Eight magic bytes opening every warehouse file.
const MAGIC: &[u8; 8] = b"RNUCAWH\0";

/// Bumped on any change to the byte layout below.
/// Version 2 added the FNV-64 checksum trailer.
const FORMAT_VERSION: u32 = 2;

/// One materialized cell, as queries and projections see it.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A null cell (the record left the column unset).
    Null,
    /// An integer cell.
    Int(i64),
    /// A float cell.
    Float(f64),
    /// A boolean cell.
    Bool(bool),
    /// A string cell.
    Str(String),
}

impl fmt::Display for Value {
    /// Table rendering: nulls print as `-`; floats print shortest-exact.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "-"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl Value {
    /// JSON rendering of this cell (`null`, number, boolean, or string).
    pub fn to_json(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                }
            }
            Value::Bool(v) => v.to_string(),
            Value::Str(v) => json_string(v),
        }
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Why a store failed to open or save.
#[derive(Debug)]
pub enum StoreError {
    /// The bytes are not a warehouse file, or are truncated/torn/garbled.
    /// Never a panic, never silently-partial data: the whole file is
    /// checksummed, so a torn save or a bit flip lands here.
    Corrupt {
        /// Byte offset where decoding stopped making sense.
        offset: usize,
        /// What was wrong there.
        message: String,
    },
    /// The file uses a format version this build does not read.
    Version(u32),
    /// The file was written against a different column catalog.
    CatalogMismatch {
        /// Catalog hash found in the file header.
        found: u64,
        /// Catalog hash this build expects.
        expected: u64,
    },
    /// The underlying file could not be read or written.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Corrupt { offset, message } => {
                write!(f, "corrupt warehouse file at byte {offset}: {message}")
            }
            StoreError::Version(v) => write!(
                f,
                "warehouse format version {v} is not supported (this build reads {FORMAT_VERSION})"
            ),
            StoreError::CatalogMismatch { found, expected } => write!(
                f,
                "warehouse catalog mismatch: file has {found:#018x}, this build expects \
                 {expected:#018x}; re-ingest into a fresh store"
            ),
            StoreError::Io(e) => write!(f, "warehouse i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl StoreError {
    /// Renders this error in compiler style against the file it came from
    /// — the same shape as [`QueryError::render`], with a hex context
    /// window pointing at the offending byte for corruption errors:
    ///
    /// ```text
    /// error: corrupt warehouse file: checksum mismatch: ...
    ///   --> bench/warehouse.bin (byte 212 of 220)
    ///    | 000000d0  4f 4c 54 50 [..] 44 42 32
    ///    |                       ^^
    ///    = help: restore the file from a backup, or delete it and re-ingest
    /// ```
    pub fn render(&self, path: &Path, bytes: &[u8]) -> String {
        match self {
            StoreError::Corrupt { offset, message } => {
                let mut out = format!(
                    "error: corrupt warehouse file: {message}\n  --> {} (byte {offset} of {})\n",
                    path.display(),
                    bytes.len()
                );
                out.push_str(&hex_context(bytes, *offset));
                out.push_str(
                    "   = help: restore the file from a backup, or delete it and re-ingest",
                );
                out
            }
            StoreError::Version(_) => format!(
                "error: {self}\n  --> {}\n   = help: re-run the sweep (or re-ingest) with this \
                 build to write the current format",
                path.display()
            ),
            StoreError::CatalogMismatch { .. } => {
                format!("error: {self}\n  --> {}", path.display())
            }
            StoreError::Io(_) => format!("error: {self}\n  --> {}", path.display()),
        }
    }
}

/// One hex-dump line (16 bytes) around `offset`, caret under the byte —
/// the corruption renderer's context window. Empty for empty files; for
/// an offset at end-of-file (truncation), the last line is shown with the
/// caret past its final byte.
fn hex_context(bytes: &[u8], offset: usize) -> String {
    if bytes.is_empty() {
        return String::new();
    }
    let at = offset.min(bytes.len());
    let line = (at.min(bytes.len() - 1) / 16) * 16;
    let end = (line + 16).min(bytes.len());
    let mut hex = String::new();
    for (i, b) in bytes[line..end].iter().enumerate() {
        if i > 0 {
            hex.push(' ');
        }
        hex.push_str(&format!("{b:02x}"));
    }
    let col = at - line;
    format!(
        "   | {line:08x}  {hex}\n   |           {}^^\n",
        " ".repeat(col * 3)
    )
}

/// The outcome of one append call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendSummary {
    /// Rows actually added.
    pub added: usize,
    /// Rows skipped because their key was already present.
    pub deduplicated: usize,
    /// The batch number stamped on the added rows.
    pub batch: u32,
}

/// Interned string storage: each distinct string stored once, cells hold
/// a `u32` id.
#[derive(Debug, Default)]
struct StringPool {
    strings: Vec<String>,
    index: HashMap<String, u32>,
}

impl StringPool {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("string pool fits u32");
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), id);
        id
    }

    fn get(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }
}

/// One column's cells, structure-of-arrays style.
#[derive(Debug)]
enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<u8>),
    Str(Vec<u32>),
}

impl ColumnData {
    fn with_type(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => ColumnData::Int(Vec::new()),
            ColumnType::Float => ColumnData::Float(Vec::new()),
            ColumnType::Bool => ColumnData::Bool(Vec::new()),
            ColumnType::Str => ColumnData::Str(Vec::new()),
        }
    }
}

/// One column: a validity byte per row plus the typed data slab.
#[derive(Debug)]
struct ColumnSlab {
    valid: Vec<u8>,
    data: ColumnData,
}

impl ColumnSlab {
    fn with_type(ty: ColumnType) -> Self {
        ColumnSlab {
            valid: Vec::new(),
            data: ColumnData::with_type(ty),
        }
    }

    /// Appends one cell; null pushes a zeroed placeholder so every slab
    /// stays exactly `row_count` long (fixed-width, seekable).
    fn push(&mut self, value: Value, pool: &mut StringPool) {
        let valid = !matches!(value, Value::Null);
        self.valid.push(u8::from(valid));
        match (&mut self.data, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(x),
            (ColumnData::Int(v), Value::Null) => v.push(0),
            (ColumnData::Float(v), Value::Float(x)) => v.push(x),
            (ColumnData::Float(v), Value::Null) => v.push(0.0),
            (ColumnData::Bool(v), Value::Bool(x)) => v.push(u8::from(x)),
            (ColumnData::Bool(v), Value::Null) => v.push(0),
            (ColumnData::Str(v), Value::Str(x)) => v.push(pool.intern(&x)),
            (ColumnData::Str(v), Value::Null) => v.push(0),
            (_, v) => unreachable!("cell {v:?} does not match the column type"),
        }
    }

    fn value(&self, row: usize, pool: &StringPool) -> Value {
        if self.valid[row] == 0 {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Bool(v) => Value::Bool(v[row] != 0),
            ColumnData::Str(v) => Value::Str(pool.get(v[row]).to_string()),
        }
    }
}

/// The single-threaded store: slabs, keys, dedup index.
#[derive(Debug)]
pub(crate) struct Store {
    keys: Vec<u64>,
    index: HashMap<u64, usize>,
    next_batch: u32,
    pool: StringPool,
    columns: Vec<ColumnSlab>,
}

impl Store {
    fn new() -> Self {
        Store {
            keys: Vec::new(),
            index: HashMap::new(),
            next_batch: 0,
            pool: StringPool::default(),
            columns: CATALOG
                .iter()
                .map(|c| ColumnSlab::with_type(c.ty))
                .collect(),
        }
    }

    pub(crate) fn row_count(&self) -> usize {
        self.keys.len()
    }

    /// The cell at (`row`, `col`), materialized.
    pub(crate) fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row, &self.pool)
    }

    /// Appends `record` unless its key is already present.
    fn push_record(&mut self, record: &RunRecord, batch: u32) -> bool {
        let key = record.key();
        if self.index.contains_key(&key) {
            return false;
        }
        let row = self.keys.len();
        self.keys.push(key);
        self.index.insert(key, row);
        for (slab, col) in self.columns.iter_mut().zip(CATALOG) {
            slab.push(record.cell(col.name, batch), &mut self.pool);
        }
        true
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&catalog_hash().to_le_bytes());
        out.extend_from_slice(&(self.keys.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.next_batch.to_le_bytes());
        for key in &self.keys {
            out.extend_from_slice(&key.to_le_bytes());
        }
        out.extend_from_slice(&(self.pool.strings.len() as u32).to_le_bytes());
        for s in &self.pool.strings {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        for slab in &self.columns {
            out.extend_from_slice(&slab.valid);
            match &slab.data {
                ColumnData::Int(v) => {
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                ColumnData::Float(v) => {
                    for x in v {
                        out.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                }
                ColumnData::Bool(v) => out.extend_from_slice(v),
                ColumnData::Str(v) => {
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
            }
        }
        // Checksum trailer over everything above: a torn save or a bit
        // flip anywhere in the file fails loudly on open instead of
        // misreading slabs (a flipped float byte would otherwise decode
        // silently).
        let mut h = Fnv64::new();
        h.write(&out);
        out.extend_from_slice(&h.finish().to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take(8, "magic")?;
        if magic != MAGIC {
            return Err(StoreError::Corrupt {
                offset: 0,
                message: "bad magic bytes (not a warehouse file)".to_string(),
            });
        }
        let version = r.u32("format version")?;
        if version != FORMAT_VERSION {
            return Err(StoreError::Version(version));
        }
        let found = r.u64("catalog hash")?;
        let expected = catalog_hash();
        if found != expected {
            return Err(StoreError::CatalogMismatch { found, expected });
        }
        // Header is plausible: verify the checksum trailer over the whole
        // body before trusting any slab bytes.
        let body_len = match bytes.len().checked_sub(8) {
            Some(body_len) if body_len >= r.pos() => body_len,
            _ => {
                return Err(StoreError::Corrupt {
                    offset: bytes.len(),
                    message: format!(
                        "{}-byte file is too short to hold its checksum trailer",
                        bytes.len()
                    ),
                })
            }
        };
        let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 bytes"));
        let mut h = Fnv64::new();
        h.write(&bytes[..body_len]);
        let computed = h.finish();
        if stored != computed {
            return Err(StoreError::Corrupt {
                offset: body_len,
                message: format!(
                    "checksum mismatch: trailer records {stored:#018x} but the content \
                     hashes to {computed:#018x} — the file is torn or bit-flipped"
                ),
            });
        }
        // From here on read only checksummed body bytes (offsets in
        // errors stay absolute file offsets).
        let mut r = ByteReader::resume(&bytes[..body_len], r.pos());
        let row_count_at = r.pos();
        let row_count = usize::try_from(r.u64("row count")?).map_err(|_| StoreError::Corrupt {
            offset: row_count_at,
            message: "row count overflows usize".to_string(),
        })?;
        // A row costs well over 8 bytes, so this rejects absurd counts in
        // truncated/garbled headers before any large allocation.
        if row_count > bytes.len() / 8 {
            return Err(StoreError::Corrupt {
                offset: row_count_at,
                message: format!(
                    "row count {row_count} is impossible for a {}-byte file",
                    bytes.len()
                ),
            });
        }
        let next_batch = r.u32("next batch")?;

        let keys_at = r.pos();
        let mut keys = Vec::with_capacity(row_count);
        for _ in 0..row_count {
            keys.push(r.u64("row key")?);
        }
        let mut index = HashMap::with_capacity(row_count);
        for (row, &key) in keys.iter().enumerate() {
            if index.insert(key, row).is_some() {
                return Err(StoreError::Corrupt {
                    offset: keys_at + row * 8,
                    message: format!("duplicate row key {key:#x}"),
                });
            }
        }

        let pool_len = r.u32("string pool size")? as usize;
        let mut pool = StringPool::default();
        for i in 0..pool_len {
            let len = r.u32("string length")? as usize;
            let string_at = r.pos();
            let raw = r.take(len, "string bytes")?;
            let s = std::str::from_utf8(raw).map_err(|_| StoreError::Corrupt {
                offset: string_at,
                message: format!("pool string {i} is not UTF-8"),
            })?;
            pool.intern(s);
        }

        let mut columns = Vec::with_capacity(CATALOG.len());
        for col in CATALOG {
            let valid = r.take(row_count, "validity slab")?.to_vec();
            let data = match col.ty {
                ColumnType::Int => {
                    let mut v = Vec::with_capacity(row_count);
                    for _ in 0..row_count {
                        v.push(r.i64("int cell")?);
                    }
                    ColumnData::Int(v)
                }
                ColumnType::Float => {
                    let mut v = Vec::with_capacity(row_count);
                    for _ in 0..row_count {
                        v.push(f64::from_bits(r.u64("float cell")?));
                    }
                    ColumnData::Float(v)
                }
                ColumnType::Bool => ColumnData::Bool(r.take(row_count, "bool slab")?.to_vec()),
                ColumnType::Str => {
                    let mut v = Vec::with_capacity(row_count);
                    for _ in 0..row_count {
                        let id_at = r.pos();
                        let id = r.u32("string cell")?;
                        if id as usize >= pool.strings.len().max(1) {
                            return Err(StoreError::Corrupt {
                                offset: id_at,
                                message: format!(
                                    "string id {id} out of range for column {}",
                                    col.name
                                ),
                            });
                        }
                        v.push(id);
                    }
                    ColumnData::Str(v)
                }
            };
            columns.push(ColumnSlab { valid, data });
        }
        if r.remaining() != 0 {
            return Err(StoreError::Corrupt {
                offset: r.pos(),
                message: format!(
                    "{} trailing bytes after the last column slab",
                    r.remaining()
                ),
            });
        }
        Ok(Store {
            keys,
            index,
            next_batch,
            pool,
            columns,
        })
    }
}

/// A checked little-endian reader over untrusted file bytes.
///
/// Unlike the journal codec's `SnapReader` (which panics on underrun,
/// because the journal verifies each payload's checksum before decoding
/// it), warehouse files cross builds, so every read returns a
/// [`StoreError`].
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// A reader over `bytes` with its cursor already at `pos` (used to
    /// re-bound the reader to the checksummed body while keeping error
    /// offsets absolute).
    fn resume(bytes: &'a [u8], pos: usize) -> Self {
        ByteReader { bytes, pos }
    }

    fn pos(&self) -> usize {
        self.pos
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt {
                offset: self.pos,
                message: format!(
                    "truncated while reading {what}: need {n} bytes, have {}",
                    self.remaining()
                ),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("sized take"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("sized take"),
        ))
    }

    fn i64(&mut self, what: &str) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(
            self.take(8, what)?.try_into().expect("sized take"),
        ))
    }
}

/// The thread-safe results warehouse.
///
/// A `Warehouse` wraps the columnar `Store` in a mutex so concurrent
/// producers (the perf harness's worker pool, parallel sweep jobs) can
/// append directly; the dedup index makes appends idempotent, so racing
/// producers of the same row resolve to exactly one copy.
#[derive(Debug)]
pub struct Warehouse {
    inner: Mutex<Store>,
}

impl Default for Warehouse {
    fn default() -> Self {
        Warehouse::new()
    }
}

impl Warehouse {
    /// An empty in-memory warehouse.
    pub fn new() -> Self {
        Warehouse {
            inner: Mutex::new(Store::new()),
        }
    }

    /// Decodes a warehouse from its file bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Ok(Warehouse {
            inner: Mutex::new(Store::decode(bytes)?),
        })
    }

    /// Opens the warehouse at `path`; a missing file yields an empty store
    /// (first ingest creates it on [`save`](Warehouse::save)).
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        match std::fs::read(path) {
            Ok(bytes) => Warehouse::from_bytes(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Warehouse::new()),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// Encodes the store to its file bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.inner.lock().expect("warehouse lock").encode()
    }

    /// Writes the store to `path` durably: the bytes go to a sibling
    /// temporary file first, are fsynced, and are renamed over `path` in
    /// one atomic step. A crash at any point leaves either the old store
    /// or the new store on disk — never a torn file (and any torn
    /// *temporary* left behind is invisible: opens go to `path`).
    ///
    /// # Errors
    ///
    /// Any I/O error from writing, syncing, or renaming; the temporary
    /// file is removed (best effort) on the error path.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        let tmp = tmp_path(path);
        let result = write_durably(path, &tmp, &self.to_bytes());
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Appends one record; returns `false` if its key was already present.
    ///
    /// The record gets its own batch number; use
    /// [`append_all`](Warehouse::append_all) to stamp a group of rows as
    /// one batch.
    pub fn append(&self, record: &RunRecord) -> bool {
        self.append_all(std::slice::from_ref(record)).added == 1
    }

    /// Appends `records` as one batch, deduplicating by key.
    ///
    /// All added rows share a batch number, so "the latest run" is
    /// queryable as `sort batch desc top 1`. A call where *every* row
    /// dedups does not advance the batch counter, which keeps a re-ingest
    /// of the same file byte-identical end to end (zero new rows *and* an
    /// unchanged store file).
    pub fn append_all(&self, records: &[RunRecord]) -> AppendSummary {
        let mut store = self.inner.lock().expect("warehouse lock");
        let batch = store.next_batch;
        let mut added = 0;
        for record in records {
            if store.push_record(record, batch) {
                added += 1;
            }
        }
        if added > 0 {
            store.next_batch += 1;
        }
        AppendSummary {
            added,
            deduplicated: records.len() - added,
            batch,
        }
    }

    /// Number of rows in the store.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("warehouse lock").row_count()
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs a query (see the [query grammar](crate::query)) and returns
    /// the projected rows, or every diagnostic the pipeline collected.
    pub fn query(&self, text: &str) -> Result<QueryOutput, Vec<QueryError>> {
        let store = self.inner.lock().expect("warehouse lock");
        query::run_query(&store, text)
    }
}

/// The sibling temporary path a durable save stages its bytes in.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "store".into());
    name.push(".tmp");
    path.with_file_name(name)
}

/// The staged write behind [`Warehouse::save`]: temp write, fsync, atomic
/// rename, parent-directory fsync. Each stage carries a fail-point site
/// (`warehouse::save::temp_write`/`fsync`/`rename`, plus
/// `warehouse::save::torn_temp` for a partial write) so the chaos suite
/// can kill the save at every stage and assert old-or-new-never-torn.
fn write_durably(path: &Path, tmp: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut file = std::fs::File::create(tmp)?;
    failpoint::io_point("warehouse::save::temp_write")?;
    if failpoint::triggered("warehouse::save::torn_temp") {
        // Simulate a crash mid-write: half the bytes land, then the
        // injected failure. The rename below never happens, so `path`
        // still holds the previous store.
        file.write_all(&bytes[..bytes.len() / 2])?;
        let _ = file.sync_all();
        return Err(StoreError::Io(std::io::Error::other(
            "fail point `warehouse::save::torn_temp` triggered (injected torn write)",
        )));
    }
    file.write_all(bytes)?;
    failpoint::io_point("warehouse::save::fsync")?;
    // fsync before rename: the rename must never make a file visible
    // whose bytes are still in flight.
    file.sync_all()?;
    drop(file);
    failpoint::io_point("warehouse::save::rename")?;
    std::fs::rename(tmp, path)?;
    // Make the rename itself durable (best effort: some filesystems
    // refuse directory handles, and the data is already safe either way).
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RowKind, RunRecord};

    fn rec(workload: &str, cores: i64) -> RunRecord {
        let mut r = RunRecord::new(RowKind::Scenario, 42, 5, "full");
        r.workload = Some(workload.to_string());
        r.design = Some("R".to_string());
        r.cores = Some(cores);
        r.total_cpi = Some(1.0 + cores as f64 / 100.0);
        r
    }

    #[test]
    fn append_dedups_by_key() {
        let w = Warehouse::new();
        assert!(w.append(&rec("apache", 16)));
        assert!(!w.append(&rec("apache", 16)), "same key must dedup");
        assert!(w.append(&rec("apache", 32)));
        assert_eq!(w.len(), 2);

        let summary = w.append_all(&[rec("apache", 16), rec("oltp", 16)]);
        assert_eq!((summary.added, summary.deduplicated), (1, 1));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn roundtrip_preserves_rows_and_dedup_index() {
        let w = Warehouse::new();
        w.append_all(&[rec("apache", 16), rec("oltp", 64)]);
        let bytes = w.to_bytes();
        let back = Warehouse::from_bytes(&bytes).expect("decode");
        assert_eq!(back.len(), 2);
        // The dedup index survives the round trip.
        assert!(!back.append(&rec("oltp", 64)));
        // Re-encoding is canonical.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn corrupt_inputs_are_rejected_not_panicked() {
        assert!(matches!(
            Warehouse::from_bytes(b"not a warehouse"),
            Err(StoreError::Corrupt { offset: 0, .. })
        ));
        let w = Warehouse::new();
        w.append(&rec("apache", 16));
        let bytes = w.to_bytes();
        // Truncation at every prefix length must error, never panic.
        for len in 0..bytes.len() {
            assert!(
                Warehouse::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
        // A flipped version byte is a version error.
        let mut v = bytes.clone();
        v[8] = 99;
        assert!(matches!(
            Warehouse::from_bytes(&v),
            Err(StoreError::Version(99))
        ));
        // A flipped catalog-hash byte is a catalog mismatch.
        let mut c = bytes.clone();
        c[12] ^= 0xFF;
        assert!(matches!(
            Warehouse::from_bytes(&c),
            Err(StoreError::CatalogMismatch { .. })
        ));
    }

    #[test]
    fn checksum_trailer_catches_single_bit_flips_anywhere() {
        // A flipped bit in a float slab would decode "successfully" as a
        // different number without the trailer; with it, every body byte
        // is covered. Flip each byte past the catalog hash (magic/version/
        // catalog flips report their own, more precise errors).
        let w = Warehouse::new();
        w.append(&rec("apache", 16));
        let bytes = w.to_bytes();
        for at in [20, 32, bytes.len() / 2, bytes.len() - 9, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x04;
            match Warehouse::from_bytes(&flipped) {
                Err(StoreError::Corrupt { offset, message }) => {
                    assert_eq!(offset, bytes.len() - 8, "flip at {at}");
                    assert!(message.contains("checksum mismatch"), "flip at {at}");
                }
                other => panic!("flip at {at}: want checksum Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_errors_carry_a_byte_offset() {
        let w = Warehouse::new();
        w.append(&rec("apache", 16));
        let bytes = w.to_bytes();
        // Cut inside the header: decoding stops at the cut.
        match Warehouse::from_bytes(&bytes[..10]).unwrap_err() {
            StoreError::Corrupt { offset, .. } => assert!(offset <= 10),
            other => panic!("want Corrupt, got {other:?}"),
        }
        // Cut mid-body: the checksum trailer reports the tear.
        let cut = bytes.len() - 12;
        match Warehouse::from_bytes(&bytes[..cut]).unwrap_err() {
            StoreError::Corrupt { offset, .. } => assert_eq!(offset, cut - 8),
            other => panic!("want Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn render_names_the_file_and_points_at_the_byte() {
        let w = Warehouse::new();
        w.append(&rec("apache", 16));
        let mut bytes = w.to_bytes();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xFF;
        let err = Warehouse::from_bytes(&bytes).unwrap_err();
        let rendered = err.render(Path::new("bench/warehouse.bin"), &bytes);
        assert!(rendered.starts_with("error: corrupt warehouse file"));
        assert!(rendered.contains("--> bench/warehouse.bin (byte"));
        assert!(rendered.contains("^^"), "caret under the offending byte");
        assert!(rendered.contains("= help:"));
        // Version errors render without a hex window but still name the file.
        let rendered = StoreError::Version(9).render(Path::new("old.bin"), &[]);
        assert!(rendered.contains("error: warehouse format version 9"));
        assert!(rendered.contains("--> old.bin"));
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rnuca-wh-save-{}.bin", std::process::id()));
        let w = Warehouse::new();
        w.append(&rec("apache", 16));
        w.save(&path).expect("save");
        assert!(!tmp_path(&path).exists(), "temp staging file must be gone");
        let back = Warehouse::open(&path).expect("reopen");
        assert_eq!(back.len(), 1);
        // Overwriting an existing store is just as safe.
        back.append(&rec("oltp", 32));
        back.save(&path).expect("re-save");
        assert_eq!(Warehouse::open(&path).expect("reopen").len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_opens_empty() {
        let w = Warehouse::open(Path::new("/nonexistent/dir/store.rnwh"));
        assert!(w.expect("missing file is an empty store").is_empty());
    }
}
