//! Crash-safe snapshot persistence for the [`ArtifactStore`]: the resident
//! service's warm cache, survived across process restarts.
//!
//! A snapshot file holds one store artifact — a target-lane enumeration or a
//! fault dictionary — in a dependency-free, versioned, checksummed binary
//! format, keyed by the same immutable content keys the in-memory store uses
//! ([`ArtifactKey`] / [`DictionaryKey`]). Because keys fingerprint the fault
//! list *contents* and the full simulation scope, a snapshot is immutable:
//! it is either byte-equivalent to what a fresh enumeration would produce, or
//! it is corrupt and must be discarded. There is no invalidation protocol.
//!
//! # On-disk format (version 2, little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "MCSX"
//! 4       4     CRC32-IEEE over every byte from offset 8 to the end
//! 8       4     format version (2)
//! 12      4     artifact kind (1 = target lanes, 2 = fault dictionary)
//! 16      8     total file length in bytes (detects truncation exactly)
//! 24      ..    key echo: the canonical key encoding the file was saved under
//! ..      ..    payload
//! ```
//!
//! The payload deliberately re-derives, rather than serialises, the fault
//! *targets*: both the lane enumeration and the dictionary build walk the
//! list in [`enumerate_targets`] order (simple, then linked, then decoder
//! faults), so the payload stores only the per-target data and the loader
//! zips it against a fresh `enumerate_targets(list)` — a snapshot can never
//! smuggle in a fault the list does not contain.
//!
//! A target-lane payload stores each distinct [`LaneSet`] once. The targets
//! of one placement shape share one set, so the loader re-derives the
//! target → set mapping from the live list's shapes, the same way it
//! re-derives the targets, and a restored artifact keeps the sharing. It
//! builds each set from its shape and the key's scope, as a fresh build
//! would, and fills the set's lanes from the payload, which must hold as
//! many as the set counts. Writing a snapshot builds every lane of every
//! set, since the payload lists them:
//!
//! ```text
//! u64   target count (must equal the live list's)
//! u64   set count (must equal the live list's distinct placement shapes)
//! per set, in the order its shape first appears among the targets:
//!   u64   lane count
//!   per lane: cells (u64 victim, u8 flags: bit 0 = first aggressor,
//!             bit 1 = second aggressor, then a u64 per aggressor present),
//!             background (u8 tag: 0 all-zero, 1 all-one, 2 checkerboard,
//!             3 custom followed by a u64 bit count and one byte per bit)
//! ```
//!
//! Version 1 stored every target's lanes separately; a version-1 file is a
//! [`SnapshotError::VersionSkew`], quarantined and rebuilt like any other
//! unusable file.
//!
//! # Failure model
//!
//! Every filesystem touch goes through the [`SnapshotIo`] trait. The
//! production impl ([`FsIo`]) wraps `std::fs`; the test impl ([`MemIo`])
//! injects torn writes, short reads, bit flips, `ENOSPC`, rename failures and
//! permission errors from deterministic scripts or seeded chaos schedules.
//! The [`SnapshotStore`] degrades gracefully on every one of them:
//!
//! * a corrupt, truncated, version-skewed or mis-keyed file is **quarantined**
//!   (moved aside, or removed when even that fails) and the caller rebuilds
//!   in memory — a typed [`SnapshotError`] is retained for `stats`;
//! * a load racing a concurrent writer (file momentarily absent, lock file
//!   present) retries with bounded backoff before treating it as a miss;
//! * an unwritable snapshot directory downgrades the store to memory-only at
//!   construction — a warning state, never an error;
//! * a failed write (disk full, rename error) is counted, the temp file is
//!   swept, and the in-memory result is served as if persistence were off.
//!
//! Writes are atomic: payload to `<name>.tmp`, fsync, rename over the final
//! name, guarded by a `<name>.lock` file created with `create_new` so only
//! one process writes a given key at a time.
//!
//! [`ArtifactStore`]: crate::ArtifactStore
//! [`enumerate_targets`]: crate::enumerate_targets
//! [`LaneSet`]: crate::LaneSet

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;

use sram_fault_model::{Bit, FaultList};

use crate::diagnose::{Syndrome, SyndromeEntry};
use crate::placement::placement_shape;
use crate::session::{share_by_shape, LaneSet, TargetLanes};
use crate::store::{ArtifactKey, DictionaryKey};
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, PoisonError};
use crate::{
    enumerate_targets, CoverageLane, DictionaryEntry, FaultDictionary, InitialState, InstanceCells,
    PlacementStrategy,
};

/// Snapshot format version written and accepted by this build.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The four magic bytes opening every snapshot file.
const MAGIC: [u8; 4] = *b"MCSX";

/// Artifact kind tag of a target-lane snapshot.
const KIND_LANES: u32 = 1;
/// Artifact kind tag of a fault-dictionary snapshot.
const KIND_DICTIONARY: u32 = 2;

/// Fixed header size: magic + checksum + version + kind + total length.
const HEADER_LEN: usize = 24;

/// How many times a load that finds the file absent while a writer holds the
/// lock retries before giving up and rebuilding.
const LOAD_RACE_RETRIES: usize = 3;

/// Backoff between load-race retries, in milliseconds (doubled per attempt).
const LOAD_RACE_BACKOFF_MS: u64 = 2;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a snapshot could not be loaded or written. Every variant is a
/// *degradation*, not a failure: the store quarantines or skips the file and
/// the caller rebuilds in memory.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// An I/O operation failed; `op` names the operation, `detail` the
    /// underlying error.
    Io {
        /// The failing operation (`read`, `write`, `rename`, …).
        op: &'static str,
        /// The underlying error rendered as text.
        detail: String,
    },
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The stored CRC32 does not match the file contents.
    ChecksumMismatch,
    /// The file was written by a different format version.
    VersionSkew {
        /// The version found in the file.
        found: u32,
    },
    /// The file holds a different artifact kind than the key asked for.
    WrongKind {
        /// The kind tag found in the file.
        found: u32,
    },
    /// The file is shorter (or longer) than its recorded total length.
    Truncated {
        /// The total length the header promises.
        expected: u64,
        /// The byte count actually present.
        found: u64,
    },
    /// The payload failed structural validation.
    Malformed {
        /// What the decoder tripped on.
        detail: &'static str,
    },
    /// The key echoed inside the file is not the key the load asked for — a
    /// hash collision or a renamed file.
    KeyMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { op, detail } => write!(f, "snapshot {op} failed: {detail}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::VersionSkew { found } => {
                write!(
                    f,
                    "snapshot version {found} != supported {SNAPSHOT_VERSION}"
                )
            }
            SnapshotError::WrongKind { found } => {
                write!(
                    f,
                    "snapshot holds artifact kind {found}, not the requested kind"
                )
            }
            SnapshotError::Truncated { expected, found } => {
                write!(
                    f,
                    "snapshot truncated: header promises {expected} bytes, found {found}"
                )
            }
            SnapshotError::Malformed { detail } => {
                write!(f, "snapshot payload malformed: {detail}")
            }
            SnapshotError::KeyMismatch => write!(f, "snapshot key echo does not match the query"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Internal result alias for decoding.
type DecodeResult<T> = std::result::Result<T, SnapshotError>;

// ---------------------------------------------------------------------------
// SnapshotIo: the sanctioned filesystem doorway
// ---------------------------------------------------------------------------

/// The filesystem surface the snapshot subsystem is allowed to touch. Every
/// `std::fs` call in the production path lives behind this trait so the chaos
/// tests can inject any failure the real filesystem can produce — and so the
/// `snapshot-io` lint rule can forbid direct `std::fs` use everywhere else on
/// the snapshot path.
pub trait SnapshotIo: fmt::Debug + Send + Sync {
    /// Creates `path` and every missing parent directory.
    fn create_dir_all(&self, path: &str) -> io::Result<()>;

    /// Reads the whole file at `path`.
    fn read(&self, path: &str) -> io::Result<Vec<u8>>;

    /// Writes `bytes` to `path` and makes them durable (fsync) before
    /// returning.
    fn write(&self, path: &str, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove(&self, path: &str) -> io::Result<()>;

    /// Creates an empty lock file at `path`, failing with
    /// [`io::ErrorKind::AlreadyExists`] when another writer holds it.
    fn create_lock(&self, path: &str) -> io::Result<()>;

    /// The file names (not paths) directly under `path`, sorted.
    fn read_dir(&self, path: &str) -> io::Result<Vec<String>>;

    /// Sleeps for `millis` milliseconds (load-race backoff).
    fn sleep(&self, millis: u64);
}

/// The production [`SnapshotIo`]: a thin veneer over `std::fs`. This is the
/// one place on the snapshot path allowed to touch the filesystem directly —
/// everything else goes through the trait, which is what the `snapshot-io`
/// lint rule enforces.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsIo;

impl SnapshotIo for FsIo {
    fn create_dir_all(&self, path: &str) -> io::Result<()> {
        // lint: allow(snapshot-io) — this *is* the sanctioned SnapshotIo impl.
        std::fs::create_dir_all(path)
    }

    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        // lint: allow(snapshot-io) — this *is* the sanctioned SnapshotIo impl.
        std::fs::read(path)
    }

    fn write(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        // lint: allow(snapshot-io) — this *is* the sanctioned SnapshotIo impl.
        let mut file = std::fs::File::create(path)?;
        file.write_all(bytes)?;
        // Durability point: the rename that follows must never publish a file
        // whose contents are still in the page cache only.
        file.sync_all()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        // lint: allow(snapshot-io) — this *is* the sanctioned SnapshotIo impl.
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        // lint: allow(snapshot-io) — this *is* the sanctioned SnapshotIo impl.
        std::fs::remove_file(path)
    }

    fn create_lock(&self, path: &str) -> io::Result<()> {
        // lint: allow(snapshot-io) — this *is* the sanctioned SnapshotIo impl.
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map(|_| ())
    }

    fn read_dir(&self, path: &str) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        // lint: allow(snapshot-io) — this *is* the sanctioned SnapshotIo impl.
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn sleep(&self, millis: u64) {
        std::thread::sleep(std::time::Duration::from_millis(millis));
    }
}

// ---------------------------------------------------------------------------
// MemIo: deterministic fault injection for the chaos suites
// ---------------------------------------------------------------------------

/// Which [`SnapshotIo`] operation a scripted fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IoOp {
    /// [`SnapshotIo::create_dir_all`].
    CreateDir,
    /// [`SnapshotIo::read`].
    Read,
    /// [`SnapshotIo::write`].
    Write,
    /// [`SnapshotIo::rename`].
    Rename,
    /// [`SnapshotIo::remove`].
    Remove,
    /// [`SnapshotIo::create_lock`].
    Lock,
    /// [`SnapshotIo::read_dir`].
    ReadDir,
}

#[derive(Debug, Clone)]
enum MemFault {
    /// The next matching operation fails with this error kind.
    Error(io::ErrorKind),
    /// The next write persists only the first `n` bytes, then reports failure
    /// — a torn write.
    Torn(usize),
    /// The next read succeeds but returns data with one bit flipped at this
    /// byte offset (modulo the file length) — silent media corruption.
    Flip(usize),
}

#[derive(Debug, Default)]
struct MemState {
    files: BTreeMap<String, Vec<u8>>,
    dirs: BTreeSet<String>,
    plans: Vec<(IoOp, MemFault)>,
    chaos_rng: u64,
    chaos_percent: u8,
    sleeps: usize,
}

/// An in-memory [`SnapshotIo`] with deterministic fault injection: scripted
/// per-operation failures ([`MemIo::fail`], [`MemIo::torn_write`],
/// [`MemIo::flip_on_read`]) or a seeded chaos schedule ([`MemIo::chaos`])
/// that injects a failure on a fixed fraction of operations. The chaos tests
/// and the `interleave` writer/loader race model both run on it.
#[derive(Debug, Default)]
pub struct MemIo {
    state: Mutex<MemState>,
}

impl MemIo {
    /// A fault-free in-memory filesystem.
    #[must_use]
    pub fn new() -> MemIo {
        MemIo::default()
    }

    /// An in-memory filesystem that fails roughly `percent`% of operations,
    /// deterministically from `seed` (xorshift64). The same seed always
    /// produces the same failure schedule.
    #[must_use]
    pub fn chaos(seed: u64, percent: u8) -> MemIo {
        let io = MemIo::new();
        {
            let mut state = io.lock();
            // xorshift needs a non-zero state.
            state.chaos_rng = seed | 1;
            state.chaos_percent = percent.min(100);
        }
        io
    }

    fn lock(&self) -> crate::sync::MutexGuard<'_, MemState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Scripts the next matching `op` to fail with `kind`.
    pub fn fail(&self, op: IoOp, kind: io::ErrorKind) {
        self.lock().plans.push((op, MemFault::Error(kind)));
    }

    /// Scripts the next write to persist only its first `keep` bytes and then
    /// report failure — a torn write, as a crash mid-write would leave.
    pub fn torn_write(&self, keep: usize) {
        self.lock().plans.push((IoOp::Write, MemFault::Torn(keep)));
    }

    /// Scripts the next read to return data with one bit flipped at byte
    /// `offset` (modulo the file length) — silent corruption.
    pub fn flip_on_read(&self, offset: usize) {
        self.lock().plans.push((IoOp::Read, MemFault::Flip(offset)));
    }

    /// The current contents of `path`, if present.
    #[must_use]
    pub fn file(&self, path: &str) -> Option<Vec<u8>> {
        self.lock().files.get(path).cloned()
    }

    /// Replaces (or plants) the contents of `path` directly — the corruption
    /// fuzzer's way of installing a tampered snapshot.
    pub fn insert_file(&self, path: &str, bytes: Vec<u8>) {
        self.lock().files.insert(path.to_string(), bytes);
    }

    /// Every stored file path, sorted.
    #[must_use]
    pub fn paths(&self) -> Vec<String> {
        self.lock().files.keys().cloned().collect()
    }

    /// How many backoff sleeps callers have taken — observability for the
    /// load-race retry tests.
    #[must_use]
    pub fn sleeps(&self) -> usize {
        self.lock().sleeps
    }

    fn take_fault(state: &mut MemState, op: IoOp) -> Option<MemFault> {
        if let Some(position) = state.plans.iter().position(|(planned, _)| *planned == op) {
            return Some(state.plans.remove(position).1);
        }
        if state.chaos_percent > 0 {
            // xorshift64: deterministic, dependency-free.
            let mut x = state.chaos_rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            state.chaos_rng = x;
            if x % 100 < u64::from(state.chaos_percent) {
                const KINDS: [io::ErrorKind; 4] = [
                    io::ErrorKind::StorageFull,
                    io::ErrorKind::PermissionDenied,
                    io::ErrorKind::Interrupted,
                    io::ErrorKind::Other,
                ];
                let kind = KINDS[(x >> 8) as usize % KINDS.len()];
                return Some(MemFault::Error(kind));
            }
        }
        None
    }

    fn fault_to_error(fault: &MemFault) -> io::Error {
        match fault {
            MemFault::Error(kind) => io::Error::new(*kind, "injected fault"),
            MemFault::Torn(_) => io::Error::new(io::ErrorKind::StorageFull, "torn write"),
            MemFault::Flip(_) => io::Error::other("flip faults do not error"),
        }
    }
}

impl SnapshotIo for MemIo {
    fn create_dir_all(&self, path: &str) -> io::Result<()> {
        let mut state = self.lock();
        if let Some(fault) = MemIo::take_fault(&mut state, IoOp::CreateDir) {
            return Err(MemIo::fault_to_error(&fault));
        }
        state.dirs.insert(path.to_string());
        Ok(())
    }

    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        let mut state = self.lock();
        let fault = MemIo::take_fault(&mut state, IoOp::Read);
        if let Some(MemFault::Error(kind)) = fault {
            return Err(io::Error::new(kind, "injected fault"));
        }
        let mut bytes = state
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        if let Some(MemFault::Flip(offset)) = fault {
            if !bytes.is_empty() {
                let index = offset % bytes.len();
                bytes[index] ^= 1;
            }
        }
        Ok(bytes)
    }

    fn write(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        match MemIo::take_fault(&mut state, IoOp::Write) {
            Some(MemFault::Torn(keep)) => {
                let keep = keep.min(bytes.len());
                state.files.insert(path.to_string(), bytes[..keep].to_vec());
                Err(io::Error::new(io::ErrorKind::StorageFull, "torn write"))
            }
            Some(fault) => Err(MemIo::fault_to_error(&fault)),
            None => {
                state.files.insert(path.to_string(), bytes.to_vec());
                Ok(())
            }
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut state = self.lock();
        if let Some(fault) = MemIo::take_fault(&mut state, IoOp::Rename) {
            return Err(MemIo::fault_to_error(&fault));
        }
        let bytes = state
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        state.files.insert(to.to_string(), bytes);
        Ok(())
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        let mut state = self.lock();
        if let Some(fault) = MemIo::take_fault(&mut state, IoOp::Remove) {
            return Err(MemIo::fault_to_error(&fault));
        }
        state
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn create_lock(&self, path: &str) -> io::Result<()> {
        let mut state = self.lock();
        if let Some(fault) = MemIo::take_fault(&mut state, IoOp::Lock) {
            return Err(MemIo::fault_to_error(&fault));
        }
        if state.files.contains_key(path) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "lock held"));
        }
        state.files.insert(path.to_string(), Vec::new());
        Ok(())
    }

    fn read_dir(&self, path: &str) -> io::Result<Vec<String>> {
        let mut state = self.lock();
        if let Some(fault) = MemIo::take_fault(&mut state, IoOp::ReadDir) {
            return Err(MemIo::fault_to_error(&fault));
        }
        let prefix = format!("{path}/");
        Ok(state
            .files
            .keys()
            .filter_map(|full| full.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(str::to_string)
            .collect())
    }

    fn sleep(&self, _millis: u64) {
        self.lock().sleeps += 1;
    }
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// The reflected IEEE 802.3 CRC32 polynomial.
const CRC_POLYNOMIAL: u32 = 0xEDB8_8320;

/// The slice-by-8 tables of [`crc32`], built at compile time: `CRC_TABLES[0]`
/// is the classic byte table, and `CRC_TABLES[k][byte]` is the CRC register
/// after `byte` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLYNOMIAL & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut byte = 0;
    while byte < 256 {
        let mut k = 1;
        while k < 8 {
            let previous = tables[k - 1][byte];
            tables[k][byte] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            k += 1;
        }
        byte += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3 polynomial, reflected), slice-by-8: eight table lookups
/// per eight bytes, then the classic byte table for the tail. Dependency-free
/// and equal to the bitwise definition on every input.
fn crc32(bytes: &[u8]) -> u32 {
    let table =
        |k: usize, value: u32, shift: u32| CRC_TABLES[k][((value >> shift) & 0xFF) as usize];
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let low = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let high = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = table(7, low, 0)
            ^ table(6, low, 8)
            ^ table(5, low, 16)
            ^ table(4, low, 24)
            ^ table(3, high, 0)
            ^ table(2, high, 8)
            ^ table(1, high, 16)
            ^ table(0, high, 24);
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ table(0, crc ^ u32::from(byte), 0);
    }
    !crc
}

/// FNV-1a over the canonical key encoding: the file-name hash. Unlike
/// `DefaultHasher`, FNV is stable across processes and Rust versions — the
/// whole point of a shared snapshot directory.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn push_str(buf: &mut Vec<u8>, value: &str) {
    push_u64(buf, value.len() as u64);
    buf.extend_from_slice(value.as_bytes());
}

fn push_state(buf: &mut Vec<u8>, state: &InitialState) {
    match state {
        InitialState::AllZero => buf.push(0),
        InitialState::AllOne => buf.push(1),
        InitialState::Checkerboard => buf.push(2),
        InitialState::Custom(bits) => {
            buf.push(3);
            push_u64(buf, bits.len() as u64);
            buf.extend(bits.iter().map(|bit| bit.as_u8()));
        }
    }
}

fn push_cells(buf: &mut Vec<u8>, cells: &InstanceCells) {
    push_u64(buf, cells.victim as u64);
    let flags = u8::from(cells.aggressor_first.is_some())
        | (u8::from(cells.aggressor_second.is_some()) << 1);
    buf.push(flags);
    if let Some(aggressor) = cells.aggressor_first {
        push_u64(buf, aggressor as u64);
    }
    if let Some(aggressor) = cells.aggressor_second {
        push_u64(buf, aggressor as u64);
    }
}

/// Bounds-checked little-endian reader over a snapshot payload. Every method
/// returns a typed error instead of panicking — the totality the corruption
/// fuzzer proves.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapshotError::Malformed {
                detail: "payload ends mid-field",
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DecodeResult<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        let bytes = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(raw))
    }

    fn usize(&mut self) -> DecodeResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed {
            detail: "value exceeds the address space",
        })
    }

    /// A collection count, sanity-bounded by the bytes actually remaining so
    /// a corrupt length can never drive a huge allocation.
    fn count(&mut self, min_item_bytes: usize) -> DecodeResult<usize> {
        let count = self.usize()?;
        if count > self.remaining() / min_item_bytes.max(1) {
            return Err(SnapshotError::Malformed {
                detail: "collection count exceeds the payload",
            });
        }
        Ok(count)
    }

    fn string(&mut self) -> DecodeResult<String> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed {
            detail: "string field is not UTF-8",
        })
    }

    fn bit(&mut self) -> DecodeResult<Bit> {
        match self.u8()? {
            0 => Ok(Bit::Zero),
            1 => Ok(Bit::One),
            _ => Err(SnapshotError::Malformed {
                detail: "bit field is neither 0 nor 1",
            }),
        }
    }

    fn state(&mut self) -> DecodeResult<InitialState> {
        match self.u8()? {
            0 => Ok(InitialState::AllZero),
            1 => Ok(InitialState::AllOne),
            2 => Ok(InitialState::Checkerboard),
            3 => {
                let len = self.count(1)?;
                let mut bits = Vec::with_capacity(len);
                for _ in 0..len {
                    bits.push(self.bit()?);
                }
                Ok(InitialState::Custom(bits))
            }
            _ => Err(SnapshotError::Malformed {
                detail: "unknown background tag",
            }),
        }
    }

    fn cells(&mut self) -> DecodeResult<InstanceCells> {
        let victim = self.usize()?;
        let flags = self.u8()?;
        if flags > 0b11 {
            return Err(SnapshotError::Malformed {
                detail: "unknown cell-assignment flags",
            });
        }
        let aggressor_first = if flags & 1 != 0 {
            Some(self.usize()?)
        } else {
            None
        };
        let aggressor_second = if flags & 2 != 0 {
            Some(self.usize()?)
        } else {
            None
        };
        Ok(InstanceCells {
            aggressor_first,
            aggressor_second,
            victim,
        })
    }

    fn done(&self) -> DecodeResult<()> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed {
                detail: "trailing bytes after the payload",
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Canonical key encodings (file-name hash + in-file key echo)
// ---------------------------------------------------------------------------

/// The list part of a key encoding: the list name, then one notation string
/// per fault in [`enumerate_targets`] order. Notation strings are built here
/// and nowhere else: the in-memory keys compare the structured contents.
fn push_list(buf: &mut Vec<u8>, list: &FaultList) {
    push_str(buf, list.name());
    let faults = list.simple().len() + list.linked().len() + list.decoders().len();
    push_u64(buf, faults as u64);
    for primitive in list.simple() {
        push_str(buf, &primitive.notation());
    }
    for fault in list.linked() {
        push_str(buf, &fault.to_string());
    }
    for fault in list.decoders() {
        push_str(buf, &fault.notation());
    }
}

fn encode_artifact_key(key: &ArtifactKey<'_>) -> Vec<u8> {
    let mut buf = Vec::new();
    push_list(&mut buf, &key.list);
    push_u64(&mut buf, key.memory_cells as u64);
    buf.push(match key.strategy {
        PlacementStrategy::Representative => 0,
        PlacementStrategy::Exhaustive => 1,
    });
    push_u64(&mut buf, key.backgrounds.len() as u64);
    for background in key.backgrounds.iter() {
        push_state(&mut buf, background);
    }
    buf
}

fn encode_dictionary_key(key: &DictionaryKey<'_>) -> Vec<u8> {
    let mut buf = Vec::new();
    push_str(&mut buf, key.test.name());
    push_str(&mut buf, &key.test.notation());
    push_list(&mut buf, &key.list);
    push_u64(&mut buf, key.memory_cells as u64);
    push_state(&mut buf, &key.background);
    buf
}

fn file_name(prefix: &str, key_bytes: &[u8]) -> String {
    format!("{prefix}-{:016x}.snap", fnv1a(key_bytes))
}

// ---------------------------------------------------------------------------
// Container encode / decode
// ---------------------------------------------------------------------------

fn encode_container(kind: u32, key_bytes: &[u8], payload: &[u8]) -> Vec<u8> {
    let total = (HEADER_LEN + 8 + key_bytes.len() + payload.len()) as u64;
    let mut buf = Vec::with_capacity(total as usize);
    buf.extend_from_slice(&MAGIC);
    push_u32(&mut buf, 0); // checksum placeholder
    push_u32(&mut buf, SNAPSHOT_VERSION);
    push_u32(&mut buf, kind);
    push_u64(&mut buf, total);
    push_u64(&mut buf, key_bytes.len() as u64);
    buf.extend_from_slice(key_bytes);
    buf.extend_from_slice(payload);
    let crc = crc32(&buf[8..]);
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Validates the container and returns the payload slice. `expected_key` of
/// `None` skips the key-echo comparison (the inspect path, which has no
/// query key) but still walks the echo.
fn decode_container<'a>(
    bytes: &'a [u8],
    expected_kind: u32,
    expected_key: Option<&[u8]>,
) -> DecodeResult<&'a [u8]> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(SnapshotError::Truncated {
            expected: (HEADER_LEN + 8) as u64,
            found: bytes.len() as u64,
        });
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    // Validate the header-declared length against the bytes actually on disk
    // *before* the O(n) checksum pass: a corrupt or hostile header promising
    // a multi-GB container is rejected here for the cost of one comparison,
    // and nothing downstream ever sizes a buffer from the declared length.
    let declared_total = u64::from_le_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
    ]);
    if declared_total != bytes.len() as u64 {
        return Err(SnapshotError::Truncated {
            expected: declared_total,
            found: bytes.len() as u64,
        });
    }
    let stored_crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if crc32(&bytes[8..]) != stored_crc {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut cursor = Cursor::new(&bytes[8..]);
    let version = cursor.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionSkew { found: version });
    }
    let kind = cursor.u32()?;
    if kind != expected_kind {
        return Err(SnapshotError::WrongKind { found: kind });
    }
    let total = cursor.u64()?;
    debug_assert_eq!(total, declared_total);
    let key_len = cursor.count(1)?;
    let echoed = cursor.take(key_len)?;
    if let Some(expected) = expected_key {
        if echoed != expected {
            return Err(SnapshotError::KeyMismatch);
        }
    }
    Ok(&bytes[8 + cursor.pos..])
}

/// Reads only the header of a snapshot file — the inspect path, which knows
/// no query key. Returns the kind tag on success.
fn probe_container(bytes: &[u8]) -> DecodeResult<u32> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(SnapshotError::Truncated {
            expected: (HEADER_LEN + 8) as u64,
            found: bytes.len() as u64,
        });
    }
    let kind = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    decode_container(bytes, kind, None)?;
    Ok(kind)
}

/// Encodes a lane artifact: the target count, then every distinct lane set
/// once, in the order its placement shape first appears among the targets.
fn encode_lanes(lanes: &TargetLanes) -> Vec<u8> {
    let mut shapes = Vec::new();
    let mut sets: Vec<&LaneSet> = Vec::new();
    for (target, set) in lanes {
        let shape = placement_shape(target);
        if !shapes.contains(&shape) {
            shapes.push(shape);
            sets.push(set);
        }
    }
    let mut buf = Vec::new();
    push_u64(&mut buf, lanes.len() as u64);
    push_u64(&mut buf, sets.len() as u64);
    for set in sets {
        push_u64(&mut buf, set.len() as u64);
        for lane in set.lanes() {
            push_cells(&mut buf, &lane.cells);
            push_state(&mut buf, &lane.background);
        }
    }
    buf
}

/// Decodes a lane payload against a fresh `enumerate_targets(list)`: the
/// target identities, and which lane set each of them shares, come from the
/// live fault list, never from the file. Each set is the one `key`'s scope
/// builds for its shape, its lanes read from the payload, so their count
/// must be the set's.
fn decode_lanes(
    payload: &[u8],
    key: &ArtifactKey<'_>,
    list: &FaultList,
) -> DecodeResult<TargetLanes> {
    let targets = enumerate_targets(list);
    let mut cursor = Cursor::new(payload);
    // The targets hold no payload bytes of their own, so their count is
    // only compared, never used to size anything.
    if cursor.usize()? != targets.len() {
        return Err(SnapshotError::Malformed {
            detail: "target count does not match the fault list",
        });
    }
    let set_count = cursor.count(8)?;
    let backgrounds: Arc<[InitialState]> = Arc::from(&key.backgrounds[..]);
    let mut decoded = 0usize;
    let lanes = share_by_shape(targets, |shape| {
        decoded += 1;
        if decoded > set_count {
            return Err(SnapshotError::Malformed {
                detail: "lane-set count does not match the fault list",
            });
        }
        let set =
            LaneSet::new(shape, key.memory_cells, key.strategy, &backgrounds).map_err(|_| {
                SnapshotError::Malformed {
                    detail: "the key's scope cannot host the fault list",
                }
            })?;
        let lane_count = cursor.count(10)?;
        let mut lanes = Vec::with_capacity(lane_count);
        for _ in 0..lane_count {
            let cells = cursor.cells()?;
            let background = cursor.state()?;
            lanes.push(CoverageLane { cells, background });
        }
        if !set.restore_lanes(lanes) {
            return Err(SnapshotError::Malformed {
                detail: "lane count does not match the key's scope",
            });
        }
        Ok(set)
    })?;
    if decoded != set_count {
        return Err(SnapshotError::Malformed {
            detail: "lane-set count does not match the fault list",
        });
    }
    cursor.done()?;
    Ok(lanes)
}

fn encode_dictionary(dictionary: &FaultDictionary, list: &FaultList) -> Vec<u8> {
    // The dictionary's entries are contiguous per target, in
    // enumerate_targets order (the build loops walk simple, linked, decoder
    // faults in list order) — so a per-target run length is enough to
    // reattach targets at load time.
    let targets = enumerate_targets(list);
    let mut buf = Vec::new();
    push_str(&mut buf, dictionary.test_name());
    push_u64(&mut buf, targets.len() as u64);
    let mut entries = dictionary.entries().iter().peekable();
    for target in &targets {
        let mut run: Vec<&DictionaryEntry> = Vec::new();
        while let Some(entry) = entries.peek() {
            if entry.target != *target {
                break;
            }
            if let Some(entry) = entries.next() {
                run.push(entry);
            }
        }
        push_u64(&mut buf, run.len() as u64);
        for entry in run {
            push_cells(&mut buf, &entry.cells);
            push_u64(&mut buf, entry.syndrome.len() as u64);
            for syndrome_entry in entry.syndrome.entries() {
                push_u64(&mut buf, syndrome_entry.element as u64);
                push_u64(&mut buf, syndrome_entry.cell as u64);
                push_u64(&mut buf, syndrome_entry.operation as u64);
                buf.push(syndrome_entry.observed.as_u8());
            }
        }
    }
    buf
}

fn decode_dictionary(
    payload: &[u8],
    key: &DictionaryKey<'_>,
    list: &FaultList,
) -> DecodeResult<FaultDictionary> {
    let targets = enumerate_targets(list);
    let mut cursor = Cursor::new(payload);
    let test_name = cursor.string()?;
    if test_name != key.test.name() {
        return Err(SnapshotError::Malformed {
            detail: "dictionary test name does not match the key",
        });
    }
    let target_count = cursor.count(8)?;
    if target_count != targets.len() {
        return Err(SnapshotError::Malformed {
            detail: "target count does not match the fault list",
        });
    }
    let mut entries = Vec::new();
    for target in targets {
        let run = cursor.count(10)?;
        for _ in 0..run {
            let cells = cursor.cells()?;
            let syndrome_len = cursor.count(25)?;
            let mut syndrome_entries = BTreeSet::new();
            for _ in 0..syndrome_len {
                let element = cursor.usize()?;
                let cell = cursor.usize()?;
                let operation = cursor.usize()?;
                let observed = cursor.bit()?;
                syndrome_entries.insert(SyndromeEntry {
                    element,
                    cell,
                    operation,
                    observed,
                });
            }
            entries.push(DictionaryEntry {
                target: target.clone(),
                cells,
                syndrome: Syndrome::from_entries(syndrome_entries),
            });
        }
    }
    cursor.done()?;
    Ok(FaultDictionary::from_parts(test_name, entries))
}

// ---------------------------------------------------------------------------
// SnapshotStats
// ---------------------------------------------------------------------------

/// Observability snapshot of a [`SnapshotStore`]: the counters the `serve`
/// stats op surfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStats {
    /// The snapshot directory the store was opened on.
    pub dir: String,
    /// `true` when the store fell back to memory-only (unwritable directory).
    pub degraded: bool,
    /// Loads answered from a valid snapshot file.
    pub hits: usize,
    /// Loads that found no snapshot (a plain cold miss).
    pub misses: usize,
    /// Snapshots written successfully.
    pub writes: usize,
    /// Writes abandoned on an I/O failure (disk full, rename error, …).
    pub write_failures: usize,
    /// Corrupt / version-skewed / mis-keyed files quarantined.
    pub quarantined: usize,
    /// The most recent degradation, rendered as text.
    pub last_error: Option<String>,
}

// ---------------------------------------------------------------------------
// SnapshotStore
// ---------------------------------------------------------------------------

/// The crash-safe snapshot layer under an
/// [`ArtifactStore`](crate::ArtifactStore): content-keyed snapshot files in
/// one directory, written atomically, loaded with quarantine-on-corruption.
/// Every failure degrades to an in-memory rebuild — attaching a snapshot
/// store can never change a result, only skip recomputation.
#[derive(Debug)]
pub struct SnapshotStore {
    io: Arc<dyn SnapshotIo>,
    dir: String,
    degraded: AtomicBool,
    hits: AtomicUsize,
    misses: AtomicUsize,
    writes: AtomicUsize,
    write_failures: AtomicUsize,
    quarantined: AtomicUsize,
    last_error: Mutex<Option<SnapshotError>>,
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory `dir` on the real
    /// filesystem. Never fails: an unwritable directory yields a store in
    /// degraded, memory-only mode — check [`SnapshotStore::is_degraded`].
    #[must_use]
    pub fn open(dir: &str) -> Arc<SnapshotStore> {
        SnapshotStore::with_io(Arc::new(FsIo), dir)
    }

    /// Opens a store over an explicit [`SnapshotIo`] — the chaos tests' entry
    /// point.
    #[must_use]
    pub fn with_io(io: Arc<dyn SnapshotIo>, dir: &str) -> Arc<SnapshotStore> {
        let store = SnapshotStore {
            io,
            dir: dir.to_string(),
            degraded: AtomicBool::new(false),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            writes: AtomicUsize::new(0),
            write_failures: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            last_error: Mutex::new(None),
        };
        if let Err(error) = store.io.create_dir_all(dir) {
            store.degraded.store(true, Ordering::Relaxed);
            store.record(SnapshotError::Io {
                op: "create-dir",
                detail: error.to_string(),
            });
        }
        Arc::new(store)
    }

    /// The directory the store persists into.
    #[must_use]
    pub fn dir(&self) -> &str {
        &self.dir
    }

    /// `true` when the store fell back to memory-only mode (the snapshot
    /// directory could not be created or written at open time).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The store's counters and most recent degradation.
    #[must_use]
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            dir: self.dir.clone(),
            degraded: self.is_degraded(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            last_error: self
                .last_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ref()
                .map(ToString::to_string),
        }
    }

    fn record(&self, error: SnapshotError) {
        *self
            .last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(error);
    }

    fn path(&self, name: &str) -> String {
        format!("{}/{}", self.dir, name)
    }

    /// Loads the snapshot of `key`, or `None` when the store must fall back
    /// to an in-memory build (miss, corruption, I/O failure — all counted).
    pub(crate) fn load_lanes(
        &self,
        key: &ArtifactKey<'_>,
        list: &FaultList,
    ) -> Option<TargetLanes> {
        let key_bytes = encode_artifact_key(key);
        let name = file_name("art", &key_bytes);
        let bytes = self.read_current(&name)?;
        match decode_container(&bytes, KIND_LANES, Some(&key_bytes))
            .and_then(|payload| decode_lanes(payload, key, list))
        {
            Ok(lanes) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(lanes)
            }
            Err(error) => {
                self.quarantine(&name, error);
                None
            }
        }
    }

    /// Persists the lane enumeration of `key`. Failures degrade silently
    /// into the counters — the in-memory result is served regardless.
    pub(crate) fn store_lanes(&self, key: &ArtifactKey<'_>, lanes: &TargetLanes) {
        let key_bytes = encode_artifact_key(key);
        let name = file_name("art", &key_bytes);
        let payload = encode_lanes(lanes);
        self.write_atomic(&name, KIND_LANES, &key_bytes, &payload);
    }

    /// Loads the dictionary snapshot of `key`, or `None` on any degradation.
    pub(crate) fn load_dictionary(
        &self,
        key: &DictionaryKey<'_>,
        list: &FaultList,
    ) -> Option<FaultDictionary> {
        let key_bytes = encode_dictionary_key(key);
        let name = file_name("dict", &key_bytes);
        let bytes = self.read_current(&name)?;
        match decode_container(&bytes, KIND_DICTIONARY, Some(&key_bytes))
            .and_then(|payload| decode_dictionary(payload, key, list))
        {
            Ok(dictionary) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(dictionary)
            }
            Err(error) => {
                self.quarantine(&name, error);
                None
            }
        }
    }

    /// Persists the dictionary of `key`.
    pub(crate) fn store_dictionary(
        &self,
        key: &DictionaryKey<'_>,
        dictionary: &FaultDictionary,
        list: &FaultList,
    ) {
        let key_bytes = encode_dictionary_key(key);
        let name = file_name("dict", &key_bytes);
        let payload = encode_dictionary(dictionary, list);
        self.write_atomic(&name, KIND_DICTIONARY, &key_bytes, &payload);
    }

    /// Reads the current snapshot bytes of `name`, retrying with bounded
    /// backoff when the file is absent while a writer holds the lock (the
    /// cross-process load/store race). `None` is a counted miss.
    fn read_current(&self, name: &str) -> Option<Vec<u8>> {
        if self.is_degraded() {
            return None;
        }
        let path = self.path(name);
        let lock_path = format!("{path}.lock");
        let mut backoff = LOAD_RACE_BACKOFF_MS;
        for attempt in 0.. {
            match self.io.read(&path) {
                Ok(bytes) => return Some(bytes),
                Err(error) if error.kind() == io::ErrorKind::NotFound => {
                    // A writer that holds the lock is mid-rename: give it a
                    // bounded chance to publish before rebuilding.
                    let writer_active = self.io.read(&lock_path).is_ok();
                    if writer_active && attempt < LOAD_RACE_RETRIES {
                        self.io.sleep(backoff);
                        backoff *= 2;
                        continue;
                    }
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                Err(error) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    self.record(SnapshotError::Io {
                        op: "read",
                        detail: error.to_string(),
                    });
                    return None;
                }
            }
        }
        None
    }

    /// Atomic, single-writer publish of one snapshot: lock, write temp,
    /// fsync, rename, unlock. Every failure is swept and counted.
    fn write_atomic(&self, name: &str, kind: u32, key_bytes: &[u8], payload: &[u8]) {
        if self.is_degraded() {
            return;
        }
        let path = self.path(name);
        let lock_path = format!("{path}.lock");
        let tmp_path = format!("{path}.tmp");
        match self.io.create_lock(&lock_path) {
            Ok(()) => {}
            Err(error) if error.kind() == io::ErrorKind::AlreadyExists => {
                // Another writer is publishing the same immutable content;
                // whoever wins, the bytes are the same. Not a failure.
                return;
            }
            Err(error) => {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
                self.record(SnapshotError::Io {
                    op: "lock",
                    detail: error.to_string(),
                });
                return;
            }
        }
        let bytes = encode_container(kind, key_bytes, payload);
        let published = self
            .io
            .write(&tmp_path, &bytes)
            .and_then(|()| self.io.rename(&tmp_path, &path));
        if let Err(error) = published {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            self.record(SnapshotError::Io {
                op: "write",
                detail: error.to_string(),
            });
            // Sweep the torn temp file; failure here changes nothing.
            let _ = self.io.remove(&tmp_path);
        } else {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
        let _ = self.io.remove(&lock_path);
    }

    /// Moves a corrupt snapshot out of the way so it is never re-read, with
    /// removal as the fallback and in-memory-only as the fallback's fallback.
    fn quarantine(&self, name: &str, error: SnapshotError) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.record(error);
        let path = self.path(name);
        let quarantine_dir = format!("{}/quarantine", self.dir);
        let quarantined = self
            .io
            .create_dir_all(&quarantine_dir)
            .and_then(|()| self.io.rename(&path, &format!("{quarantine_dir}/{name}")));
        if quarantined.is_err() {
            let _ = self.io.remove(&path);
        }
    }

    /// Header-validates every snapshot file in the directory — the CLI
    /// `snapshot` subcommand's inspect view. Lock/temp leftovers and foreign
    /// files are reported as such, not errors.
    #[must_use]
    pub fn inspect(&self) -> Vec<SnapshotFileInfo> {
        let names = match self.io.read_dir(&self.dir) {
            Ok(names) => names,
            Err(_) => return Vec::new(),
        };
        names
            .into_iter()
            .map(|name| {
                let path = self.path(&name);
                let (bytes, status, kind) = match self.io.read(&path) {
                    Ok(contents) if name.ends_with(".snap") => match probe_container(&contents) {
                        Ok(KIND_LANES) => (contents.len(), "ok".to_string(), "lanes"),
                        Ok(KIND_DICTIONARY) => (contents.len(), "ok".to_string(), "dictionary"),
                        Ok(_) => (contents.len(), "ok".to_string(), "unknown"),
                        Err(error) => (contents.len(), error.to_string(), "corrupt"),
                    },
                    Ok(contents) => (contents.len(), "not a snapshot".to_string(), "other"),
                    Err(error) => (0, error.to_string(), "unreadable"),
                };
                SnapshotFileInfo {
                    name,
                    bytes,
                    kind: kind.to_string(),
                    status,
                }
            })
            .collect()
    }
}

/// One row of [`SnapshotStore::inspect`]: a file in the snapshot directory
/// and what header validation made of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFileInfo {
    /// The file name within the snapshot directory.
    pub name: String,
    /// File size in bytes.
    pub bytes: usize,
    /// `lanes`, `dictionary`, `corrupt`, `other` or `unreadable`.
    pub kind: String,
    /// `ok`, or the validation error rendered as text.
    pub status: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecPolicy, SharedEngine};
    use sram_fault_model::FaultListBuilder;
    use sram_fault_model::Ffm;

    fn small_list() -> FaultList {
        FaultListBuilder::new("snapshot tests")
            .family(Ffm::TransitionFault)
            .family(Ffm::WriteDestructiveFault)
            .build()
            .expect("static families are valid")
    }

    /// Targets of all five placement shapes, so the lane sets are shared in
    /// a non-trivial pattern.
    fn mixed_list() -> FaultList {
        let lf3 = FaultList::list_1()
            .linked()
            .iter()
            .filter(|fault| fault.cell_count() == 3)
            .take(2)
            .cloned()
            .collect::<Vec<_>>();
        FaultListBuilder::new("snapshot sharing")
            .family(Ffm::TransitionFault)
            .family(Ffm::StateCoupling)
            .linked_all(lf3)
            .decoder_all(sram_fault_model::DecoderFault::all())
            .build()
            .expect("static families, linked faults and decoders are valid")
    }

    /// The key `build_lanes` enumerates under: 6 cells, the session's
    /// default representative placements and uniform backgrounds.
    fn artifact_key(list: &FaultList) -> ArtifactKey<'_> {
        ArtifactKey::new(
            list,
            6,
            PlacementStrategy::Representative,
            &[InitialState::AllZero, InitialState::AllOne],
        )
    }

    /// The sharing pattern of `lanes`: the index of the first target holding
    /// each target's lane set.
    fn sharing(lanes: &TargetLanes) -> Vec<usize> {
        lanes
            .iter()
            .map(|(_, set)| {
                lanes
                    .iter()
                    .position(|(_, first)| Arc::ptr_eq(first, set))
                    .expect("a set is held by its own target")
            })
            .collect()
    }

    fn build_lanes(list: &FaultList) -> TargetLanes {
        let session = crate::Session::new(ExecPolicy::default()).with_memory_cells(6);
        session
            .target_lanes(list)
            .expect("6 cells host the list")
            .as_ref()
            .clone()
    }

    #[test]
    fn lanes_round_trip_byte_identically() {
        let list = mixed_list();
        let key = artifact_key(&list);
        let lanes = build_lanes(&list);
        let io = Arc::new(MemIo::new());
        let store = SnapshotStore::with_io(Arc::clone(&io) as Arc<dyn SnapshotIo>, "snap");
        store.store_lanes(&key, &lanes);
        assert_eq!(store.stats().writes, 1);
        let loaded = store.load_lanes(&key, &list).expect("snapshot loads");
        assert_eq!(loaded, lanes);
        assert_eq!(encode_lanes(&loaded), encode_lanes(&lanes));
        assert_eq!(store.stats().hits, 1);
        // The loaded artifact shares its lane sets exactly like the built
        // one: one set per placement shape, all five shapes present.
        assert_eq!(sharing(&loaded), sharing(&lanes));
        assert_eq!(
            sharing(&lanes).into_iter().collect::<BTreeSet<_>>().len(),
            5
        );
        // The lock file must not linger after a successful publish.
        assert!(io.paths().iter().all(|path| !path.ends_with(".lock")));
        assert!(io.paths().iter().all(|path| !path.ends_with(".tmp")));
    }

    #[test]
    fn dictionary_round_trip_preserves_lookup_structure() {
        let list = small_list();
        let engine = SharedEngine::new(ExecPolicy::default());
        let session = engine.session().with_memory_cells(6);
        let test = march_test::catalog::march_ss();
        let fresh = session.dictionary(&test, &list);
        let key = DictionaryKey::new(&test, &list, 6, InitialState::AllOne);
        let store = SnapshotStore::with_io(Arc::new(MemIo::new()), "snap");
        store.store_dictionary(&key, &fresh, &list);
        let loaded = store.load_dictionary(&key, &list).expect("snapshot loads");
        assert_eq!(loaded.entries(), fresh.entries());
        assert_eq!(loaded.test_name(), fresh.test_name());
        assert_eq!(loaded.distinct_syndromes(), fresh.distinct_syndromes());
        // Lookup goes through the rebuilt index: every fresh syndrome must
        // resolve to the same entry set.
        for entry in fresh.entries() {
            assert_eq!(
                loaded.lookup(&entry.syndrome),
                fresh.lookup(&entry.syndrome)
            );
        }
    }

    #[test]
    fn missing_snapshot_is_a_counted_miss() {
        let list = small_list();
        let store = SnapshotStore::with_io(Arc::new(MemIo::new()), "snap");
        assert!(store.load_lanes(&artifact_key(&list), &list).is_none());
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_and_never_reread() {
        let list = small_list();
        let key = artifact_key(&list);
        let io = Arc::new(MemIo::new());
        let store = SnapshotStore::with_io(Arc::clone(&io) as Arc<dyn SnapshotIo>, "snap");
        store.store_lanes(&key, &build_lanes(&list));
        // Flip one payload bit behind the store's back.
        let path = io
            .paths()
            .into_iter()
            .find(|path| path.ends_with(".snap"))
            .expect("snapshot written");
        let mut bytes = io.file(&path).expect("file exists");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        io.insert_file(&path, bytes);

        assert!(store.load_lanes(&key, &list).is_none());
        let stats = store.stats();
        assert_eq!(stats.quarantined, 1);
        assert!(stats.last_error.is_some());
        // The corrupt file moved into quarantine/, so the retry is a miss.
        assert!(io.file(&path).is_none());
        assert!(io.paths().iter().any(|path| path.contains("/quarantine/")));
        assert!(store.load_lanes(&key, &list).is_none());
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn version_skew_is_typed_and_quarantined() {
        let list = small_list();
        let key = artifact_key(&list);
        let io = Arc::new(MemIo::new());
        let store = SnapshotStore::with_io(Arc::clone(&io) as Arc<dyn SnapshotIo>, "snap");
        store.store_lanes(&key, &build_lanes(&list));
        let path = io
            .paths()
            .into_iter()
            .find(|path| path.ends_with(".snap"))
            .expect("snapshot written");
        let mut bytes = io.file(&path).expect("file exists");
        // Mark the file as version 1 (the per-target lane layout) and re-seal
        // the checksum so only the skew trips.
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&bytes[8..]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        io.insert_file(&path, bytes);

        assert!(store.load_lanes(&key, &list).is_none());
        let stats = store.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(
            stats.last_error.as_deref(),
            Some("snapshot version 1 != supported 2")
        );
        assert!(io.file(&path).is_none());

        // A session over the store rebuilds the artifact and re-persists it
        // at the current version.
        let artifacts = Arc::new(crate::ArtifactStore::new());
        assert!(artifacts.attach_snapshots(Arc::clone(&store)));
        let rebuilt = SharedEngine::with_store(ExecPolicy::default(), artifacts)
            .session()
            .with_memory_cells(6)
            .target_lanes(&list)
            .expect("6 cells host the list");
        assert_eq!(*rebuilt, build_lanes(&list));
        assert_eq!(store.stats().writes, 2);
        let republished = io.file(&path).expect("rebuild re-persisted");
        assert_eq!(republished[8..12], SNAPSHOT_VERSION.to_le_bytes());
    }

    #[test]
    fn torn_write_never_publishes_and_cleans_up() {
        let list = small_list();
        let key = artifact_key(&list);
        let io = Arc::new(MemIo::new());
        let store = SnapshotStore::with_io(Arc::clone(&io) as Arc<dyn SnapshotIo>, "snap");
        io.torn_write(10);
        store.store_lanes(&key, &build_lanes(&list));
        let stats = store.stats();
        assert_eq!(stats.writes, 0);
        assert_eq!(stats.write_failures, 1);
        // Neither the torn temp nor the lock survives, and the final name was
        // never created — the next load is a clean miss, not corruption.
        assert!(io.paths().is_empty(), "leftovers: {:?}", io.paths());
        assert!(store.load_lanes(&key, &list).is_none());
        assert_eq!(store.stats().quarantined, 0);
    }

    #[test]
    fn disk_full_and_rename_failure_degrade_to_counted_skips() {
        let list = small_list();
        let key = artifact_key(&list);
        for (op, kind) in [
            (IoOp::Write, io::ErrorKind::StorageFull),
            (IoOp::Rename, io::ErrorKind::PermissionDenied),
            (IoOp::Lock, io::ErrorKind::PermissionDenied),
        ] {
            let io = Arc::new(MemIo::new());
            let store = SnapshotStore::with_io(Arc::clone(&io) as Arc<dyn SnapshotIo>, "snap");
            io.fail(op, kind);
            store.store_lanes(&key, &build_lanes(&list));
            let stats = store.stats();
            assert_eq!(stats.writes, 0, "{op:?}");
            assert_eq!(stats.write_failures, 1, "{op:?}");
            assert!(stats.last_error.is_some(), "{op:?}");
        }
    }

    #[test]
    fn unwritable_directory_downgrades_to_memory_only() {
        let io = Arc::new(MemIo::new());
        io.fail(IoOp::CreateDir, io::ErrorKind::PermissionDenied);
        let store = SnapshotStore::with_io(Arc::clone(&io) as Arc<dyn SnapshotIo>, "snap");
        assert!(store.is_degraded());
        let list = small_list();
        let key = artifact_key(&list);
        // Degraded mode is inert: no I/O, no counters beyond the open error.
        store.store_lanes(&key, &build_lanes(&list));
        assert!(store.load_lanes(&key, &list).is_none());
        let stats = store.stats();
        assert!(stats.degraded);
        assert_eq!(stats.writes + stats.hits + stats.misses, 0);
        assert!(io.paths().is_empty());
    }

    #[test]
    fn load_race_retries_with_backoff_then_misses() {
        let list = small_list();
        let key = artifact_key(&list);
        let io = Arc::new(MemIo::new());
        let store = SnapshotStore::with_io(Arc::clone(&io) as Arc<dyn SnapshotIo>, "snap");
        // A writer died holding the lock: the file never appears.
        let key_bytes = encode_artifact_key(&key);
        let name = file_name("art", &key_bytes);
        io.insert_file(&format!("snap/{name}.lock"), Vec::new());
        assert!(store.load_lanes(&key, &list).is_none());
        assert_eq!(io.sleeps(), LOAD_RACE_RETRIES);
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn concurrent_writer_lock_skips_the_publish() {
        let list = small_list();
        let key = artifact_key(&list);
        let io = Arc::new(MemIo::new());
        let store = SnapshotStore::with_io(Arc::clone(&io) as Arc<dyn SnapshotIo>, "snap");
        let key_bytes = encode_artifact_key(&key);
        let name = file_name("art", &key_bytes);
        io.insert_file(&format!("snap/{name}.lock"), Vec::new());
        store.store_lanes(&key, &build_lanes(&list));
        let stats = store.stats();
        // Losing the lock race is neither a write nor a failure.
        assert_eq!(stats.writes, 0);
        assert_eq!(stats.write_failures, 0);
    }

    #[test]
    fn key_encodings_keep_their_file_names() {
        // A snapshot's file name hashes the canonical key encoding, so a
        // change to how keys are held in memory must never move it: every
        // existing snapshot directory would silently miss.
        let list = FaultList::list_1();
        let uniform = [InitialState::AllZero, InitialState::AllOne];
        let lanes = ArtifactKey::new(&list, 8, PlacementStrategy::Representative, &uniform);
        assert_eq!(
            file_name("art", &encode_artifact_key(&lanes)),
            "art-9d23bc13ccb947d2.snap"
        );
        let decoders = FaultList::list_2().with_address_decoder_faults();
        let patterned = [
            InitialState::Checkerboard,
            InitialState::Custom(vec![Bit::One; 16]),
        ];
        let lanes = ArtifactKey::new(&decoders, 16, PlacementStrategy::Exhaustive, &patterned);
        assert_eq!(
            file_name("art", &encode_artifact_key(&lanes)),
            "art-f9eb43bb0ede3ddb.snap"
        );
        let test = march_test::catalog::march_ss();
        let unlinked = FaultList::unlinked_static();
        let dictionary = DictionaryKey::new(&test, &unlinked, 6, InitialState::AllZero);
        assert_eq!(
            file_name("dict", &encode_dictionary_key(&dictionary)),
            "dict-5b9845747eaba7f5.snap"
        );
    }

    #[test]
    fn wrong_kind_and_key_mismatch_are_typed() {
        let list = small_list();
        let key = artifact_key(&list);
        let io = Arc::new(MemIo::new());
        let store = SnapshotStore::with_io(Arc::clone(&io) as Arc<dyn SnapshotIo>, "snap");
        store.store_lanes(&key, &build_lanes(&list));
        let key_bytes = encode_artifact_key(&key);
        let name = file_name("art", &key_bytes);
        let lanes_bytes = io.file(&format!("snap/{name}")).expect("written");

        // The same bytes presented as a dictionary: WrongKind.
        assert_eq!(
            decode_container(&lanes_bytes, KIND_DICTIONARY, Some(&key_bytes))
                .map(<[u8]>::len)
                .expect_err("kind must not match"),
            SnapshotError::WrongKind { found: KIND_LANES }
        );
        // The same bytes presented under a different key: KeyMismatch.
        let other = ArtifactKey::new(&list, 8, PlacementStrategy::Exhaustive, &[]);
        let other_bytes = encode_artifact_key(&other);
        assert_eq!(
            decode_container(&lanes_bytes, KIND_LANES, Some(&other_bytes))
                .map(<[u8]>::len)
                .expect_err("key must not match"),
            SnapshotError::KeyMismatch
        );
    }

    #[test]
    fn inspect_reports_valid_and_corrupt_files() {
        let list = small_list();
        let key = artifact_key(&list);
        let io = Arc::new(MemIo::new());
        let store = SnapshotStore::with_io(Arc::clone(&io) as Arc<dyn SnapshotIo>, "snap");
        store.store_lanes(&key, &build_lanes(&list));
        io.insert_file(
            "snap/junk-0000000000000000.snap",
            b"not a snapshot".to_vec(),
        );
        io.insert_file("snap/readme.txt", b"hello".to_vec());
        let mut rows = store.inspect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .any(|row| row.kind == "lanes" && row.status == "ok"));
        assert!(rows.iter().any(|row| row.kind == "corrupt"));
        assert!(rows.iter().any(|row| row.kind == "other"));
    }

    #[test]
    fn chaos_io_is_deterministic_per_seed() {
        let schedule = |seed: u64| {
            let io = MemIo::chaos(seed, 40);
            (0..32)
                .map(|index| io.write(&format!("f{index}"), b"x").is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8), "different seeds should differ");
        assert!(schedule(7).iter().any(|ok| !ok), "chaos injects failures");
        assert!(
            schedule(7).iter().any(|ok| *ok),
            "chaos is not total failure"
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC register of `bytes`, one bit at a time: the definition the
    /// table-driven [`crc32`] must equal.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLYNOMIAL & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_driven_crc32_equals_the_bitwise_definition() {
        // A xorshift stream: every length up to 64 crosses the 8-byte
        // blocks at each offset, and 128 KiB covers a large snapshot file.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..128 * 1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for length in 0..=64 {
            for offset in [0, 3] {
                let bytes = &buffer[offset..offset + length];
                assert_eq!(
                    crc32(bytes),
                    bitwise_crc32(bytes),
                    "{length} bytes at {offset}"
                );
            }
        }
        assert_eq!(crc32(&buffer), bitwise_crc32(&buffer));
        assert_eq!(bitwise_crc32(b"123456789"), 0xCBF4_3926);
    }
}
