//! Crash-safe, content-addressed on-disk result store.
//!
//! Every simulation outcome in this workspace is a pure function of its
//! spec, the machine configuration and the code version — so a finished
//! result can be paid for once and reused across processes: a re-run of
//! `repro`, a CI job, or a restarted `pipedepth-serve` should warm-start
//! from the previous run's results instead of re-simulating every cell.
//! This crate provides the durable tier below the in-memory
//! `ShardedCache`/`TieredCache` layer, with three guarantees:
//!
//! * **Never a wrong answer.** Records carry the full spec (not just its
//!   hash), every payload is covered by an FNV-1a checksum, the file
//!   carries a trailing whole-file checksum, and the header binds the
//!   store to a format version, a consumer schema version, a code
//!   version and a config digest. Any mismatch — corruption, truncation,
//!   version skew, a different run configuration — degrades to a cold
//!   start ([`LoadOutcome::Cold`] with an [`InvalidReason`]), never a
//!   panic and never a stale result.
//! * **Crash-safe publish.** A snapshot is written to a temp file in the
//!   store directory and atomically renamed over the previous one
//!   ([`publish_records`]); readers only ever observe a complete old or a
//!   complete new file.
//! * **Off the hot path.** Snapshots are handed to a [`Flusher`] — a
//!   single write-behind worker thread — so the simulation loop never
//!   blocks on I/O; [`Flusher::shutdown`] drains outstanding work at
//!   process exit.
//!
//! The codec layer ([`ByteWriter`] / [`ByteReader`] / [`Blob`]) is shared
//! with consumer crates, which implement [`Blob`] for their own spec and
//! value types next to those types' private fields.
//!
//! This crate is std-only and deliberately knows nothing about
//! simulation, telemetry or time: consumers time their own load/flush
//! paths and bump their own counters from the outcomes reported here.

pub mod codec;
pub mod file;
pub mod flush;

pub use codec::{Blob, ByteReader, ByteWriter, DecodeError};
pub use file::{
    load_records, publish_records, InvalidReason, LoadOutcome, NamespaceSpec, FORMAT_VERSION,
};
pub use flush::Flusher;

/// FNV-1a 64-bit hash of a byte slice — the integrity checksum used for
/// every record payload and for the whole file image.
///
/// The same hash family the workspace already uses for content keys
/// (`Fnv64` in `pipedepth-trace`); duplicated here over raw bytes so this
/// crate stays dependency-free.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_separates_nearby_inputs() {
        assert_ne!(fnv1a(&[0, 1]), fnv1a(&[1, 0]));
        assert_ne!(fnv1a(&[0]), fnv1a(&[0, 0]));
    }
}
