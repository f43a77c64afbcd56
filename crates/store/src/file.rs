//! The on-disk namespace file: versioned header, checksummed records,
//! atomic publish, and a loader that degrades every failure to a cold
//! start.
//!
//! One namespace — one file (`<name>.pds` under the store directory) —
//! holds one snapshot of one record family (simulation reports,
//! annotations). The layout, all little-endian:
//!
//! ```text
//! magic            4 bytes   "PDS\n"
//! format_version   u32       FORMAT_VERSION (this crate's framing)
//! namespace        str       must equal the requested namespace
//! schema_version   u32       consumer's record-codec version
//! code_version     str       consumer's code fingerprint
//! config_digest    u64       consumer's run-configuration digest
//! record_count     u64
//! records          count ×   [u32 payload len][payload][u64 FNV-1a(payload)]
//! file_checksum    u64       FNV-1a over every preceding byte
//! ```
//!
//! The header fields are the invalidation rules: a snapshot written by a
//! different codec, a different code version or a different run
//! configuration is *valid data for a different question*, so the loader
//! reports it as a cold start rather than risk a wrong answer. Publish is
//! atomic (temp file + rename in the same directory), so a crash
//! mid-flush leaves the previous complete snapshot in place.

use crate::codec::{ByteReader, ByteWriter};
use crate::fnv1a;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File magic: `PDS` plus a newline byte so text-mode mangling is caught.
pub const MAGIC: [u8; 4] = *b"PDS\n";

/// Version of the framing implemented by this module. Bumped when the
/// header or record layout itself changes; consumer record codecs version
/// independently through [`NamespaceSpec::schema_version`].
pub const FORMAT_VERSION: u32 = 1;

/// Identity of one namespace: which file to read, and every header field
/// that must match for its records to be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamespaceSpec<'a> {
    /// Namespace (and file stem) — e.g. `sim_reports`.
    pub name: &'a str,
    /// The consumer's record-codec version; bump it whenever the record
    /// encoding changes meaning.
    pub schema_version: u32,
    /// The consumer's code fingerprint (typically its crate version):
    /// results computed by different code do not carry over.
    pub code_version: &'a str,
    /// Digest of the run configuration that produced the records.
    pub config_digest: u64,
}

impl NamespaceSpec<'_> {
    /// The namespace's file name under the store directory.
    pub fn file_name(&self) -> String {
        format!("{}.pds", self.name)
    }

    /// The namespace's path under `dir`.
    pub fn path(&self, dir: &Path) -> PathBuf {
        dir.join(self.file_name())
    }
}

/// Why a namespace load came back cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidReason {
    /// No snapshot file exists (the ordinary first-run case).
    Missing,
    /// The file exists but could not be read.
    Io,
    /// The file ended before its framing did.
    Truncated,
    /// The magic bytes are wrong — not a store file.
    BadMagic,
    /// Written by a different framing version of this crate.
    FormatVersion,
    /// The header names a different namespace than requested.
    Namespace,
    /// Written under a different consumer record-codec version.
    SchemaVersion,
    /// Written by a different code version.
    CodeVersion,
    /// Written under a different run configuration.
    ConfigDigest,
    /// A record payload failed its checksum.
    RecordChecksum,
    /// The whole-file checksum failed (header or framing corruption).
    FileChecksum,
}

impl InvalidReason {
    /// A stable lower-snake label (manifest and log rendering).
    pub fn label(&self) -> &'static str {
        match self {
            InvalidReason::Missing => "missing",
            InvalidReason::Io => "io",
            InvalidReason::Truncated => "truncated",
            InvalidReason::BadMagic => "bad_magic",
            InvalidReason::FormatVersion => "format_version",
            InvalidReason::Namespace => "namespace",
            InvalidReason::SchemaVersion => "schema_version",
            InvalidReason::CodeVersion => "code_version",
            InvalidReason::ConfigDigest => "config_digest",
            InvalidReason::RecordChecksum => "record_checksum",
            InvalidReason::FileChecksum => "file_checksum",
        }
    }

    /// True for the ordinary cold start (no snapshot yet) as opposed to a
    /// rejected one; consumers count only rejections as `store.invalid`.
    pub fn is_missing(&self) -> bool {
        matches!(self, InvalidReason::Missing)
    }
}

impl fmt::Display for InvalidReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Result of loading a namespace: its record payloads, or a cold start.
#[derive(Debug)]
pub enum LoadOutcome {
    /// The snapshot matched every header rule and every checksum; these
    /// are its record payloads in publish order.
    Warm(Vec<Vec<u8>>),
    /// No usable snapshot; the reason says whether it was merely absent
    /// or actively rejected.
    Cold(InvalidReason),
}

impl LoadOutcome {
    /// The records of a warm load, or `None` for a cold start.
    pub fn records(self) -> Option<Vec<Vec<u8>>> {
        match self {
            LoadOutcome::Warm(records) => Some(records),
            LoadOutcome::Cold(_) => None,
        }
    }
}

/// Encodes one complete namespace file image for `records`.
fn encode_file(spec: &NamespaceSpec<'_>, records: &[Vec<u8>]) -> Vec<u8> {
    let payload: usize = records.iter().map(|r| r.len() + 12).sum();
    let mut w = ByteWriter::with_capacity(64 + spec.name.len() + payload);
    w.put_raw(&MAGIC)
        .put_u32(FORMAT_VERSION)
        .put_str(spec.name)
        .put_u32(spec.schema_version)
        .put_str(spec.code_version)
        .put_u64(spec.config_digest)
        .put_u64(records.len() as u64);
    for record in records {
        w.put_bytes(record).put_u64(fnv1a(record));
    }
    let checksum = fnv1a(w.as_bytes());
    w.put_u64(checksum);
    w.into_bytes()
}

/// Atomically publishes a namespace snapshot: the full image is written
/// to a temp file in the store directory, then renamed over the previous
/// snapshot. Readers never observe a partial file; a crash mid-write
/// leaves at worst an orphaned temp file and the previous snapshot
/// intact.
///
/// # Errors
///
/// Any filesystem error creating the directory, writing the temp file or
/// renaming it.
pub fn publish_records(
    dir: &Path,
    spec: &NamespaceSpec<'_>,
    records: &[Vec<u8>],
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let image = encode_file(spec, records);
    // The temp file lives in the destination directory so the rename
    // stays within one filesystem (atomic on POSIX).
    let tmp = dir.join(format!(".{}.tmp.{}", spec.name, std::process::id()));
    fs::write(&tmp, &image)?;
    match fs::rename(&tmp, spec.path(dir)) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Best-effort cleanup; the publish itself already failed.
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Parses a file image; any framing or header mismatch is an
/// [`InvalidReason`].
fn decode_file(spec: &NamespaceSpec<'_>, image: &[u8]) -> Result<Vec<Vec<u8>>, InvalidReason> {
    let mut r = ByteReader::new(image);
    if r.take_raw(MAGIC.len())
        .map_err(|_| InvalidReason::Truncated)?
        != MAGIC
    {
        return Err(InvalidReason::BadMagic);
    }
    if r.take_u32().map_err(|_| InvalidReason::Truncated)? != FORMAT_VERSION {
        return Err(InvalidReason::FormatVersion);
    }
    if r.take_str().map_err(|_| InvalidReason::Truncated)? != spec.name {
        return Err(InvalidReason::Namespace);
    }
    if r.take_u32().map_err(|_| InvalidReason::Truncated)? != spec.schema_version {
        return Err(InvalidReason::SchemaVersion);
    }
    if r.take_str().map_err(|_| InvalidReason::Truncated)? != spec.code_version {
        return Err(InvalidReason::CodeVersion);
    }
    if r.take_u64().map_err(|_| InvalidReason::Truncated)? != spec.config_digest {
        return Err(InvalidReason::ConfigDigest);
    }
    let count = r.take_u64().map_err(|_| InvalidReason::Truncated)?;
    // Each record needs at least its 12 framing bytes; a corrupt count
    // must not drive a huge preallocation.
    if count > (r.remaining() as u64) / 12 {
        return Err(InvalidReason::Truncated);
    }
    let mut records = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let payload = r.take_bytes().map_err(|_| InvalidReason::Truncated)?;
        let stored = r.take_u64().map_err(|_| InvalidReason::Truncated)?;
        if fnv1a(payload) != stored {
            return Err(InvalidReason::RecordChecksum);
        }
        records.push(payload.to_vec());
    }
    // The trailing whole-file checksum covers everything the record
    // checksums do not: the header fields and the framing itself.
    let body_len = image.len() - r.remaining();
    let stored = r.take_u64().map_err(|_| InvalidReason::Truncated)?;
    if fnv1a(&image[..body_len]) != stored {
        return Err(InvalidReason::FileChecksum);
    }
    if r.finish().is_err() {
        return Err(InvalidReason::FileChecksum);
    }
    Ok(records)
}

/// Loads a namespace snapshot, degrading every possible failure —
/// missing file, I/O error, truncation, corruption, any version or
/// configuration mismatch — to [`LoadOutcome::Cold`]. Never panics,
/// never returns records that fail a checksum or header rule.
pub fn load_records(dir: &Path, spec: &NamespaceSpec<'_>) -> LoadOutcome {
    let path = spec.path(dir);
    let image = match fs::read(&path) {
        Ok(image) => image,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return LoadOutcome::Cold(InvalidReason::Missing)
        }
        Err(_) => return LoadOutcome::Cold(InvalidReason::Io),
    };
    match decode_file(spec, &image) {
        Ok(records) => LoadOutcome::Warm(records),
        Err(reason) => LoadOutcome::Cold(reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pipedepth-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> NamespaceSpec<'static> {
        NamespaceSpec {
            name: "unit",
            schema_version: 3,
            code_version: "0.1.0-test",
            config_digest: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    fn sample_records() -> Vec<Vec<u8>> {
        vec![b"alpha".to_vec(), vec![], vec![0xFF; 300]]
    }

    fn reason(outcome: LoadOutcome) -> InvalidReason {
        match outcome {
            LoadOutcome::Cold(reason) => reason,
            LoadOutcome::Warm(_) => panic!("expected a cold start"),
        }
    }

    #[test]
    fn publish_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        publish_records(&dir, &spec(), &sample_records()).expect("publish");
        let records = load_records(&dir, &spec()).records().expect("warm");
        assert_eq!(records, sample_records());
        // Republish replaces the snapshot atomically.
        publish_records(&dir, &spec(), &[b"v2".to_vec()]).expect("publish");
        let records = load_records(&dir, &spec()).records().expect("warm");
        assert_eq!(records, vec![b"v2".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_ordinary_cold_start() {
        let dir = temp_dir("missing");
        let r = reason(load_records(&dir, &spec()));
        assert_eq!(r, InvalidReason::Missing);
        assert!(r.is_missing());
        assert_eq!(r.label(), "missing");
    }

    #[test]
    fn truncated_file_degrades_to_cold() {
        let dir = temp_dir("trunc");
        publish_records(&dir, &spec(), &sample_records()).expect("publish");
        let path = spec().path(&dir);
        let image = fs::read(&path).expect("read");
        for keep in [0, 3, 10, image.len() / 2, image.len() - 1] {
            fs::write(&path, &image[..keep]).expect("truncate");
            let r = reason(load_records(&dir, &spec()));
            assert!(
                !matches!(r, InvalidReason::Missing),
                "{keep} bytes must be rejected, not missing"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_record_fails_its_checksum() {
        let dir = temp_dir("bitflip");
        publish_records(&dir, &spec(), &sample_records()).expect("publish");
        let path = spec().path(&dir);
        let mut image = fs::read(&path).expect("read");
        // Flip one bit inside the first record's payload ("alpha"): the
        // payload starts right after the header and its length prefix.
        let header_len = image.len() - {
            let mut total = 8; // file checksum
            for r in sample_records() {
                total += 12 + r.len();
            }
            total
        };
        image[header_len + 4] ^= 0x01;
        fs::write(&path, &image).expect("corrupt");
        assert_eq!(
            reason(load_records(&dir, &spec())),
            InvalidReason::RecordChecksum
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_corruption_fails_the_file_checksum() {
        let dir = temp_dir("headerflip");
        publish_records(&dir, &spec(), &sample_records()).expect("publish");
        let path = spec().path(&dir);
        let mut image = fs::read(&path).expect("read");
        // Corrupt the record count (its low byte, right after the header
        // fields): the count is framing, not payload, so only the
        // whole-file checksum — or the framing walk — can catch it.
        let count_pos = 4 + 4 + (4 + spec().name.len()) + 4 + (4 + spec().code_version.len()) + 8;
        image[count_pos] = image[count_pos].wrapping_add(1);
        fs::write(&path, &image).expect("corrupt");
        let r = reason(load_records(&dir, &spec()));
        assert!(
            matches!(
                r,
                InvalidReason::Truncated
                    | InvalidReason::RecordChecksum
                    | InvalidReason::FileChecksum
            ),
            "corrupt framing must be caught, got {r}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_and_digest_skew_invalidate() {
        let dir = temp_dir("skew");
        publish_records(&dir, &spec(), &sample_records()).expect("publish");
        let mut other = spec();
        other.schema_version += 1;
        assert_eq!(
            reason(load_records(&dir, &other)),
            InvalidReason::SchemaVersion
        );
        let mut other = spec();
        other.code_version = "0.2.0-test";
        assert_eq!(
            reason(load_records(&dir, &other)),
            InvalidReason::CodeVersion
        );
        let mut other = spec();
        other.config_digest ^= 1;
        assert_eq!(
            reason(load_records(&dir, &other)),
            InvalidReason::ConfigDigest
        );
        let mut other = spec();
        other.name = "different";
        assert_eq!(reason(load_records(&dir, &other)), InvalidReason::Missing);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_rejected_by_magic() {
        let dir = temp_dir("magic");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(spec().path(&dir), b"{\"not\": \"a store\"} and some more").expect("write");
        assert_eq!(reason(load_records(&dir, &spec())), InvalidReason::BadMagic);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_format_version_is_rejected() {
        let dir = temp_dir("format");
        publish_records(&dir, &spec(), &[]).expect("publish");
        let path = spec().path(&dir);
        let mut image = fs::read(&path).expect("read");
        image[4] = image[4].wrapping_add(1); // format_version low byte
        fs::write(&path, &image).expect("corrupt");
        assert_eq!(
            reason(load_records(&dir, &spec())),
            InvalidReason::FormatVersion
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_snapshot_is_warm() {
        let dir = temp_dir("empty");
        publish_records(&dir, &spec(), &[]).expect("publish");
        let records = load_records(&dir, &spec()).records().expect("warm");
        assert!(records.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_leaves_no_temp_files() {
        let dir = temp_dir("tmpfiles");
        publish_records(&dir, &spec(), &sample_records()).expect("publish");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
