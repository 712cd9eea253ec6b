//! Dataset export/import — the simulated counterpart of the paper's
//! artifact release ("we make our dataset, artifacts, source code,
//! processing scripts, plots and results publicly available").
//!
//! A [`Dataset`] is a directory holding one `manifest.json` describing
//! the campaign plus one binary `sessions/<name>.kpi` file per session
//! (format v3, below) holding the spec and the full slot-level KPI trace.
//! Every figure can be recomputed from an exported dataset without
//! re-running the simulator — exactly how the paper's artifact consumers
//! work with its released captures. Text consumers use [`write_csv`].
//!
//! # Session file format (v3)
//!
//! All integers are little-endian; every section starts on an 8-byte
//! boundary.
//!
//! | Bytes | Field |
//! |---|---|
//! | 8 | magic [`SESSION_MAGIC`] (`\x89MB5GKPI`) |
//! | 4 | format version `u32` = [`DATASET_VERSION`] |
//! | 4 | `spec_len` `u32` |
//! | `spec_len`, zero-padded to 8 | the [`SessionSpec`] as canonical JSON (the form [`SessionSpec::stable_hash`] hashes) |
//! | 8 | `len`, the record count, `u64` |
//! | [`KpiTrace::columns_byte_len`]`(len)` | the column dump of [`KpiTrace::write_columns`]: 17 value columns, then 4 packed flag columns, each zero-padded to 8 |
//! | 8 | [`checksum`] of every byte before it, `u64` |
//!
//! The loader sniffs the first byte: `0x89` starts a v3 file, `{` a v1/v2
//! JSON session, which still load. A malformed file yields a typed
//! [`DecodeError`].

use crate::session::{SessionResult, SessionSpec};
use ran::kpi::{ColumnError, KpiTrace, CHUNK_RECORDS};
use serde::{Deserialize, Serialize};
use std::io::{self, Read};
use std::path::{Component, Path, PathBuf};

/// Manifest of an exported dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DatasetManifest {
    /// Free-text description of the campaign.
    pub description: String,
    /// Session file names (relative to `sessions/`), in export order.
    pub sessions: Vec<String>,
    /// Total records across all sessions.
    pub total_records: u64,
    /// Format version, for forward compatibility.
    pub version: u32,
}

/// A dataset rooted at a directory.
#[derive(Debug, Clone)]
pub struct Dataset {
    root: PathBuf,
}

/// One named, typed reason a dataset load lost data — the currency of
/// [`Dataset::load_all_lossy`]. The paper's artifact pipeline faced all
/// of these in the raw XCAL captures (truncated files, collector
/// versions newer than the parser, files listed but never flushed) and
/// salvaged what it could; so does ours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// `manifest.json` is absent (or unreadable at the I/O level).
    MissingManifest {
        /// The manifest path that could not be read.
        path: PathBuf,
        /// The underlying I/O error.
        detail: String,
    },
    /// `manifest.json` exists but does not parse as a manifest.
    MalformedManifest {
        /// The parse error.
        detail: String,
    },
    /// The manifest declares a format version newer than this build
    /// understands. Sessions are still attempted best-effort.
    UnknownVersion {
        /// The version the manifest declares.
        found: u32,
        /// The newest version this build writes.
        supported: u32,
    },
    /// A session file named by the manifest is missing on disk.
    MissingSession {
        /// The manifest entry.
        name: String,
    },
    /// A session file exists but does not parse — truncation lands here.
    MalformedSession {
        /// The manifest entry.
        name: String,
        /// The parse error.
        detail: String,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::MissingManifest { path, detail } => {
                write!(f, "manifest {} unreadable: {detail}", path.display())
            }
            LoadError::MalformedManifest { detail } => {
                write!(f, "manifest does not parse: {detail}")
            }
            LoadError::UnknownVersion { found, supported } => {
                write!(f, "dataset version {found} is newer than supported {supported}")
            }
            LoadError::MissingSession { name } => {
                write!(f, "session file {name} named by the manifest is missing")
            }
            LoadError::MalformedSession { name, detail } => {
                write!(f, "session file {name} does not parse: {detail}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Durably commit `contents` to `path`: write a process-unique `.tmp-`
/// sibling, fsync it, rename it into place, then fsync the parent
/// directory so the rename itself survives a host crash.
///
/// A bare tmp+rename leaves two holes this helper closes. First, a crash
/// after the rename can still lose the *rename* (the directory entry
/// lives in the parent directory's metadata, which is not flushed by the
/// file's own fsync) — an acknowledged checkpoint entry would silently
/// vanish. Second, a fixed `.tmp` sibling name lets two processes
/// committing the same path interleave their writes and rename a torn
/// hybrid into place; the pid suffix gives every writer its own staging
/// file, so concurrent committers of identical content race benignly.
/// Every durable write in the campaign engine — session files,
/// `checkpoint.json`, `manifest.json`, and the distributed coordinator's
/// lease renewals — funnels through here.
pub fn commit_file(path: &Path, contents: &[u8]) -> io::Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        e
    })?;
    if let Some(dir) = parent {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Fsync a directory so recently committed renames inside it are
/// durable. No-op errors (e.g. a filesystem that refuses directory
/// handles) are not swallowed: durability is the point.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Current dataset format version, written into the manifest and every
/// session file. Version 3 stores each session as the binary columnar
/// file described in the module docs. Version 2 stored JSON with one
/// concatenated array per KPI column; version 1 stored JSON row objects.
/// [`Dataset::load_session`] reads all three.
pub const DATASET_VERSION: u32 = 3;

/// First eight bytes of a v3 session file. The leading `0x89` is not
/// ASCII, so it can never open a JSON (v1/v2) session file.
pub const SESSION_MAGIC: [u8; 8] = *b"\x89MB5GKPI";

/// Bytes before the spec blob: magic, version, `spec_len`.
const HEADER_BYTES: usize = 16;

/// Why a session file could not be decoded. Every malformed input —
/// truncated, bit-flipped or forged — maps to one of these; the decoder
/// never panics and never allocates more than the input justifies.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// Neither the v3 magic nor the start of a JSON session.
    BadMagic,
    /// A v3 magic followed by a version this build does not read.
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
    },
    /// The file ends inside its fixed header or spec blob.
    Truncated {
        /// Bytes the header needs.
        needed: u64,
        /// Bytes present.
        found: u64,
    },
    /// The file size disagrees with the record count it declares.
    LengthMismatch {
        /// The declared record count.
        len: u64,
        /// File bytes `len` records need (`None` when that overflows).
        expected: Option<u64>,
        /// File bytes present.
        found: u64,
    },
    /// The trailing checksum does not match the bytes before it.
    ChecksumMismatch {
        /// The checksum stored in the file.
        stored: u64,
        /// The checksum of the bytes read.
        computed: u64,
    },
    /// The spec blob does not parse as a [`SessionSpec`].
    BadSpec {
        /// The parse error.
        detail: String,
    },
    /// A modulation byte outside the wire code table.
    UnknownModulation {
        /// Record index.
        index: u64,
        /// The offending byte.
        code: u8,
    },
    /// A `time_s` that is NaN, infinite or negative.
    ImpossibleTime {
        /// Record index.
        index: u64,
        /// The offending timestamp.
        time_s: f64,
    },
    /// A v1/v2 JSON session file that does not parse.
    Json {
        /// The parse error.
        detail: String,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a session file (bad magic)"),
            DecodeError::UnsupportedVersion { found } => {
                write!(f, "session file version {found} is not {DATASET_VERSION}")
            }
            DecodeError::Truncated { needed, found } => {
                write!(f, "truncated: header needs {needed} bytes, file has {found}")
            }
            DecodeError::LengthMismatch { len, expected: Some(want), found } => {
                write!(f, "length mismatch: {len} records need {want} bytes, file has {found}")
            }
            DecodeError::LengthMismatch { len, expected: None, found } => {
                write!(f, "length mismatch: {len} records overflow the file size ({found} bytes)")
            }
            DecodeError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            DecodeError::BadSpec { detail } => write!(f, "spec does not parse: {detail}"),
            DecodeError::UnknownModulation { index, code } => {
                write!(f, "record {index}: unknown modulation code {code}")
            }
            DecodeError::ImpossibleTime { index, time_s } => {
                write!(f, "record {index}: impossible time {time_s} s")
            }
            DecodeError::Json { detail } => write!(f, "JSON session does not parse: {detail}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The v3 file checksum: a word-at-a-time multiply–rotate hash over
/// little-endian `u64` words (a trailing partial word is zero-padded),
/// seeded with the byte count and finished with a full-avalanche mix.
/// Each step is a bijection of both the running state and the input
/// word, so any change confined to one word is always detected.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = 0x6d62_3567_6b70_6933 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(K).rotate_left(29);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Encode one session as a v3 session file (layout in the module docs).
/// The bytes are a pure function of `(spec, trace)`: equal sessions
/// always encode identically, which the determinism and distributed
/// byte-identity harnesses rely on.
pub fn encode_session(spec: &SessionSpec, trace: &KpiTrace) -> Vec<u8> {
    let spec_json = serde_json::to_string(spec).expect("spec serialisation is infallible");
    let spec_len = u32::try_from(spec_json.len()).expect("a spec is a few hundred bytes");
    let columns = KpiTrace::columns_byte_len(trace.len()).expect("an in-memory trace's dump fits");
    let mut out =
        Vec::with_capacity(HEADER_BYTES + spec_json.len().next_multiple_of(8) + 8 + columns + 8);
    out.extend_from_slice(&SESSION_MAGIC);
    out.extend_from_slice(&DATASET_VERSION.to_le_bytes());
    out.extend_from_slice(&spec_len.to_le_bytes());
    out.extend_from_slice(spec_json.as_bytes());
    out.resize(out.len().next_multiple_of(8), 0);
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    trace.write_columns(&mut out);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decode a session file of any supported version: v3 binary, or v1/v2
/// JSON (sniffed by the first byte).
pub fn decode_session(bytes: &[u8]) -> Result<SessionResult, DecodeError> {
    match bytes.iter().find(|b| !b.is_ascii_whitespace()) {
        Some(&b) if b == SESSION_MAGIC[0] => decode_v3(bytes),
        Some(b'{') => {
            let text = std::str::from_utf8(bytes)
                .map_err(|e| DecodeError::Json { detail: e.to_string() })?;
            serde_json::from_str(text).map_err(|e| DecodeError::Json { detail: e.to_string() })
        }
        Some(_) => Err(DecodeError::BadMagic),
        None => {
            Err(DecodeError::Truncated { needed: HEADER_BYTES as u64, found: bytes.len() as u64 })
        }
    }
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn decode_v3(bytes: &[u8]) -> Result<SessionResult, DecodeError> {
    let found = bytes.len() as u64;
    let magic = bytes.len().min(SESSION_MAGIC.len());
    if bytes[..magic] != SESSION_MAGIC[..magic] {
        return Err(DecodeError::BadMagic);
    }
    if bytes.len() < HEADER_BYTES {
        return Err(DecodeError::Truncated { needed: HEADER_BYTES as u64, found });
    }
    let version = le_u32(bytes, 8);
    if version != DATASET_VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version });
    }
    // Spec blob, `len`, and the trailing checksum must all be present.
    let spec_len = u64::from(le_u32(bytes, 12));
    let needed = HEADER_BYTES as u64 + spec_len.next_multiple_of(8) + 16;
    if found < needed {
        return Err(DecodeError::Truncated { needed, found });
    }
    let (spec_len, len_at) = (spec_len as usize, needed as usize - 16);
    let len = le_u64(bytes, len_at);
    let columns_at = len_at + 8;
    let expected = usize::try_from(len)
        .ok()
        .and_then(KpiTrace::columns_byte_len)
        .and_then(|columns| columns.checked_add(columns_at + 8));
    let mismatch = DecodeError::LengthMismatch { len, expected: expected.map(|e| e as u64), found };
    if expected != Some(bytes.len()) {
        return Err(mismatch);
    }
    let body_end = bytes.len() - 8;
    let stored = le_u64(bytes, body_end);
    let computed = checksum(&bytes[..body_end]);
    if stored != computed {
        return Err(DecodeError::ChecksumMismatch { stored, computed });
    }
    let spec = std::str::from_utf8(&bytes[HEADER_BYTES..HEADER_BYTES + spec_len])
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str::<SessionSpec>(text).map_err(|e| e.to_string()))
        .map_err(|detail| DecodeError::BadSpec { detail })?;
    let columns = &bytes[columns_at..body_end];
    let trace = KpiTrace::read_columns(len as usize, columns).map_err(|e| match e {
        ColumnError::UnknownModulation { index, code } => {
            DecodeError::UnknownModulation { index: index as u64, code }
        }
        ColumnError::ImpossibleTime { index, time_s } => {
            DecodeError::ImpossibleTime { index: index as u64, time_s }
        }
        ColumnError::LengthMismatch { .. } => mismatch,
    })?;
    Ok(SessionResult { spec, trace })
}

impl Dataset {
    /// Open (or designate) a dataset directory.
    pub fn at(root: impl Into<PathBuf>) -> Self {
        Dataset { root: root.into() }
    }

    /// The dataset root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn sessions_dir(&self) -> PathBuf {
        self.root.join("sessions")
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// The canonical session file name: export index, operator acronym,
    /// seed.
    pub fn session_file_name(index: usize, result: &SessionResult) -> String {
        Dataset::session_file_name_for(index, &result.spec)
    }

    /// [`Dataset::session_file_name`] from the spec alone — the name is
    /// a pure function of `(index, spec)`, which lets distributed
    /// workers locate a session file before (re-)running it.
    pub fn session_file_name_for(index: usize, spec: &crate::session::SessionSpec) -> String {
        format!(
            "{:03}_{}_seed{}.kpi",
            index,
            spec.operator.acronym().replace(['[', ']'], ""),
            spec.seed
        )
    }

    /// A sibling of `root` carrying the given suffix — staging and
    /// tombstone directories live next to the dataset, never inside it.
    fn sibling(&self, suffix: &str) -> PathBuf {
        let mut s = self.root.clone().into_os_string();
        s.push(suffix);
        PathBuf::from(s)
    }

    /// Export a batch of session results, writing the manifest and one
    /// v3 session file per session. Returns the manifest.
    ///
    /// The export is **atomic at the directory level**: everything is
    /// staged into a `<root>.partial-<pid>` sibling first and swapped
    /// into place only once the manifest is on disk. A failure mid-export
    /// (full disk, killed process) leaves the previous dataset — or
    /// nothing — at `root`, never a torn half-export that `load_all`
    /// would trip over; a previous export at `root` is replaced
    /// wholesale, so stale session files from an older, larger campaign
    /// cannot shadow the new manifest.
    pub fn export(
        &self,
        description: &str,
        results: &[SessionResult],
    ) -> io::Result<DatasetManifest> {
        let _span = obs::span("dataset.export");
        let staging = self.sibling(&format!(".partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&staging);
        let staged = Dataset::at(&staging);
        let mut written = 0u64;
        let manifest = (|| -> io::Result<DatasetManifest> {
            std::fs::create_dir_all(staged.sessions_dir())?;
            let mut manifest = DatasetManifest {
                description: description.to_string(),
                sessions: Vec::new(),
                total_records: 0,
                version: DATASET_VERSION,
            };
            for (i, r) in results.iter().enumerate() {
                let name = Dataset::session_file_name(i, r);
                let bytes = encode_session(&r.spec, &r.trace);
                std::fs::write(staged.sessions_dir().join(&name), &bytes)?;
                written += bytes.len() as u64;
                manifest.total_records += r.trace.len() as u64;
                manifest.sessions.push(name);
            }
            let json = serde_json::to_string_pretty(&manifest)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            std::fs::write(staged.manifest_path(), json)?;
            Ok(manifest)
        })()
        .map_err(|e| {
            let _ = std::fs::remove_dir_all(&staging);
            e
        })?;

        // Swap the finished staging directory into place. An existing
        // dataset moves aside first so the rename into `root` cannot
        // collide; the tombstone is deleted once the swap lands.
        let stale = self.sibling(&format!(".stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&stale);
        let swap = (|| -> io::Result<()> {
            if self.root.symlink_metadata().is_ok() {
                std::fs::rename(&self.root, &stale)?;
            }
            std::fs::rename(&staging, &self.root)
        })()
        .map_err(|e| {
            let _ = std::fs::remove_dir_all(&staging);
            e
        });
        swap?;
        // Make the directory swap itself durable: the renames live in the
        // parent directory's metadata, which the staged files' writes do
        // not flush.
        if let Some(parent) = self.root.parent().filter(|p| !p.as_os_str().is_empty()) {
            sync_dir(parent)?;
        }
        let _ = std::fs::remove_dir_all(&stale);

        let reg = obs::registry();
        reg.counter("dataset.exports").inc();
        reg.counter("dataset.exported_records").add(manifest.total_records);
        reg.counter("dataset.bytes_written").add(written);
        Ok(manifest)
    }

    /// Write one session into `sessions/` **incrementally** (no manifest
    /// involved) — the checkpoint path. The file goes through
    /// [`commit_file`] (process-unique tmp sibling, fsync, rename, parent
    /// directory fsync), so a kill mid-write never leaves a torn session
    /// file under its final name, a host crash cannot lose the rename,
    /// and two distributed workers committing the same deterministic
    /// session race benignly. Returns the file name.
    pub fn write_session(&self, index: usize, result: &SessionResult) -> io::Result<String> {
        std::fs::create_dir_all(self.sessions_dir())?;
        let name = Dataset::session_file_name(index, result);
        let bytes = encode_session(&result.spec, &result.trace);
        commit_file(&self.sessions_dir().join(&name), &bytes)?;
        let reg = obs::registry();
        reg.counter("dataset.checkpointed_sessions").inc();
        reg.counter("dataset.bytes_written").add(bytes.len() as u64);
        Ok(name)
    }

    /// Read the manifest.
    pub fn manifest(&self) -> io::Result<DatasetManifest> {
        let json = std::fs::read_to_string(self.manifest_path())?;
        serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Read one session file's bytes, counting them under
    /// `dataset.bytes_read`. Names come from untrusted files
    /// (`manifest.json`, `checkpoint.json`, `done/` markers), so anything
    /// but a single plain file name — an absolute path, `..`, a
    /// subdirectory — is refused as [`io::ErrorKind::InvalidData`]
    /// instead of read from outside `sessions/`.
    ///
    /// The bytes replace `buf`'s contents, so a loader that reads many
    /// sessions reuses one buffer instead of faulting in a fresh one per
    /// file.
    fn read_session_bytes(&self, name: &str, buf: &mut Vec<u8>) -> io::Result<()> {
        let mut parts = Path::new(name).components();
        if !matches!((parts.next(), parts.next()), (Some(Component::Normal(_)), None)) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("session name {name:?} is not a plain file name"),
            ));
        }
        buf.clear();
        std::fs::File::open(self.sessions_dir().join(name))?.read_to_end(buf)?;
        obs::registry().counter("dataset.bytes_read").add(buf.len() as u64);
        Ok(())
    }

    /// Load one session by its manifest name, whatever its format version.
    /// A malformed file is an [`io::ErrorKind::InvalidData`] error whose
    /// inner error is the typed [`DecodeError`].
    pub fn load_session(&self, name: &str) -> io::Result<SessionResult> {
        self.load_into(name, &mut Vec::new())
    }

    /// [`Dataset::load_session`], reading the file into `buf`.
    fn load_into(&self, name: &str, buf: &mut Vec<u8>) -> io::Result<SessionResult> {
        self.read_session_bytes(name, buf)?;
        decode_session(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Load every session in manifest order, reading each file into one
    /// reused buffer.
    pub fn load_all(&self) -> io::Result<Vec<SessionResult>> {
        let _span = obs::span("dataset.load");
        let mut buf = Vec::new();
        self.manifest()?.sessions.iter().map(|name| self.load_into(name, &mut buf)).collect()
    }

    /// Load everything salvageable, in manifest order, with one typed
    /// [`LoadError`] per piece of data that could not be recovered.
    ///
    /// Unlike the all-or-nothing [`Dataset::load_all`], a truncated
    /// session file, a manifest entry whose file vanished, or a manifest
    /// from a newer format version each cost only what they name — every
    /// healthy session still loads. An unreadable or unparsable manifest
    /// is terminal (there is nothing to walk) and yields a single error.
    pub fn load_all_lossy(&self) -> (Vec<SessionResult>, Vec<LoadError>) {
        let _span = obs::span("dataset.load_lossy");
        let mut errors = Vec::new();
        let manifest = match std::fs::read_to_string(self.manifest_path()) {
            Ok(json) => match serde_json::from_str::<DatasetManifest>(&json) {
                Ok(m) => m,
                Err(e) => {
                    errors.push(LoadError::MalformedManifest { detail: e.to_string() });
                    return (Vec::new(), errors);
                }
            },
            Err(e) => {
                errors.push(LoadError::MissingManifest {
                    path: self.manifest_path(),
                    detail: e.to_string(),
                });
                return (Vec::new(), errors);
            }
        };
        if manifest.version > DATASET_VERSION {
            // Newer collector than parser: note it, then salvage
            // best-effort — per-session sniffing may still understand
            // the files.
            errors.push(LoadError::UnknownVersion {
                found: manifest.version,
                supported: DATASET_VERSION,
            });
        }
        let mut records = Vec::with_capacity(manifest.sessions.len());
        let mut bytes = Vec::new();
        for name in &manifest.sessions {
            match self.read_session_bytes(name, &mut bytes) {
                Ok(()) => match decode_session(&bytes) {
                    Ok(record) => records.push(record),
                    Err(e) => errors.push(LoadError::MalformedSession {
                        name: name.clone(),
                        detail: e.to_string(),
                    }),
                },
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    errors.push(LoadError::MissingSession { name: name.clone() });
                }
                Err(e) => errors.push(LoadError::MalformedSession {
                    name: name.clone(),
                    detail: e.to_string(),
                }),
            }
        }
        let reg = obs::registry();
        reg.counter("dataset.salvaged_sessions").add(records.len() as u64);
        reg.counter("dataset.load_errors").add(errors.len() as u64);
        (records, errors)
    }
}

/// Stream a KPI trace as CSV into a writer, one columnar chunk at a time:
/// rows are formatted into a buffer that is flushed every
/// [`CHUNK_RECORDS`] records, so exporting a multi-minute trace never
/// holds more than one chunk's worth of text in memory.
pub fn write_csv<W: io::Write>(trace: &KpiTrace, writer: &mut W) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut buf = String::with_capacity(CHUNK_RECORDS * 96 + 128);
    buf.push_str(
        "slot,time_s,carrier,direction,scheduled,n_prb,n_re,mcs,modulation,layers,\
         tbs_bits,delivered_bits,is_retx,block_error,cqi,sinr_db,rsrp_dbm,rsrq_db,serving_site\n",
    );
    for (i, r) in trace.iter().enumerate() {
        let _ = writeln!(
            buf,
            "{},{:.6},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{}",
            r.slot,
            r.time_s,
            r.carrier,
            match r.direction {
                ran::kpi::Direction::Dl => "DL",
                ran::kpi::Direction::Ul => "UL",
            },
            r.scheduled,
            r.n_prb,
            r.n_re,
            r.mcs,
            r.modulation,
            r.layers,
            r.tbs_bits,
            r.delivered_bits,
            r.is_retx,
            r.block_error,
            r.cqi,
            r.sinr_db,
            r.rsrp_dbm,
            r.rsrq_db,
            r.serving_site,
        );
        if (i + 1) % CHUNK_RECORDS == 0 {
            writer.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    writer.write_all(buf.as_bytes())?;
    writer.flush()
}

/// Render a KPI trace as CSV (one row per slot record) — the
/// spreadsheet-friendly form the paper's artifact repository ships next
/// to its raw captures. Convenience wrapper over [`write_csv`].
pub fn trace_to_csv(trace: &KpiTrace) -> String {
    let mut out = Vec::with_capacity(trace.len() * 96 + 128);
    write_csv(trace, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("CSV rows are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use operators::Operator;
    use ran::kpi::Direction;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("midband5g-dataset-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_preserves_traces_exactly() {
        let results: Vec<SessionResult> = (0..2)
            .map(|i| {
                SessionResult::run(SessionSpec::stationary(Operator::VodafoneGermany, i, 1.0, 60 + i as u64))
            })
            .collect();
        let ds = Dataset::at(tmpdir("roundtrip"));
        let manifest = ds.export("test campaign", &results).unwrap();
        assert_eq!(manifest.sessions.len(), 2);
        assert_eq!(manifest.version, DATASET_VERSION);

        let loaded = ds.load_all().unwrap();
        assert_eq!(loaded.len(), 2);
        for (orig, back) in results.iter().zip(&loaded) {
            assert_eq!(orig.spec.seed, back.spec.seed);
            assert_eq!(orig.trace.len(), back.trace.len());
            // Figures recompute identically from the export.
            assert_eq!(
                orig.trace.mean_throughput_mbps(Direction::Dl),
                back.trace.mean_throughput_mbps(Direction::Dl)
            );
            assert_eq!(orig.trace.layer_shares(), back.trace.layer_shares());
        }
        std::fs::remove_dir_all(ds.root()).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_clean_error() {
        let ds = Dataset::at(tmpdir("missing"));
        assert!(ds.manifest().is_err());
        assert!(ds.load_session("nope.json").is_err());
    }

    #[test]
    fn csv_export_shape() {
        let r = SessionResult::run(SessionSpec::stationary(Operator::VodafoneGermany, 0, 0.2, 4));
        let csv = trace_to_csv(&r.trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), r.trace.len() + 1, "header + one row per record");
        assert!(lines[0].starts_with("slot,time_s,carrier,direction"));
        let cols = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        // Directions render as DL/UL.
        assert!(lines[1..].iter().all(|l| l.contains(",DL,") || l.contains(",UL,")));
    }

    #[test]
    fn record_counts_accumulate() {
        let results = vec![SessionResult::run(SessionSpec::stationary(
            Operator::AttUs,
            0,
            0.5,
            3,
        ))];
        let ds = Dataset::at(tmpdir("counts"));
        let manifest = ds.export("one", &results).unwrap();
        assert_eq!(manifest.total_records, results[0].trace.len() as u64);
        std::fs::remove_dir_all(ds.root()).unwrap();
    }

    #[test]
    fn v1_fixture_still_loads() {
        // A committed dataset exported before the columnar refactor:
        // row-object traces, version 1 manifest.
        let ds = Dataset::at(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1_dataset"));
        let manifest = ds.manifest().unwrap();
        assert_eq!(manifest.version, 1);
        let record = ds.load_session(&manifest.sessions[0]).unwrap();
        assert_eq!(record.trace.len(), 3);
        let first = record.trace.get(0).unwrap();
        assert_eq!(first.slot, 0);
        assert_eq!(first.modulation, ran::kpi::Modulation::Qam256);
        assert!(first.scheduled);
        assert_eq!(record.trace.iter().filter(|r| r.direction == Direction::Ul).count(), 1);
        // load_all and load_all_lossy follow the manifest the same way.
        assert_eq!(ds.load_all().unwrap().len(), manifest.sessions.len());
        let (lossy, errors) = ds.load_all_lossy();
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(lossy[0].trace, record.trace);
    }
}
