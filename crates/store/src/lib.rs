#![warn(missing_docs)]

//! `adaphet-store` — a persistent, versioned, checksummed store for
//! fitted surrogate state.
//!
//! Every tuning session learns a response curve; this crate lets the
//! next session start from it. A [`SurrogateSnapshot`] captures what a
//! GP strategy knows at the end of a session — the observation history,
//! the action space it was defined over, the LP lower-bound curve, and
//! the fitted hyper-parameters — keyed by a [`PlatformSignature`]
//! derived from the machine mix (per-group node counts, speeds,
//! bandwidths) and the workload. A [`SurrogateStore`] is a directory of
//! such snapshots with exact (`get`) and similarity-ranked (`nearest`)
//! lookup, written atomically (tmp file + rename) so a crashed writer
//! never leaves a torn snapshot behind.
//!
//! # On-disk format
//!
//! One snapshot is one file (see `DESIGN.md` §8 for the byte-layout
//! table):
//!
//! ```text
//! offset 0   magic  "ADSS"          (4 bytes)
//! offset 4   format version, u32 LE (currently 1)
//! offset 8   CRC-32 (IEEE) of every byte from offset 12 on, u32 LE
//! offset 12  sections...
//! ```
//!
//! Each section is a 4-byte ASCII tag, a u64 LE payload length, and the
//! payload. Floats travel as `f64::to_bits` u64 LE, so a decoded
//! snapshot is bit-identical to what was encoded — pinned by a proptest.
//! Unknown section tags are skipped (room for forward-compatible
//! additions within a version); a version from the future, a bad magic,
//! a truncated file or a checksum mismatch are typed [`StoreError`]s,
//! never panics.

mod codec;
mod error;
mod signature;
mod snapshot;
mod store;

pub use error::StoreError;
pub use signature::{GroupSig, PlatformSignature};
pub use snapshot::{GpHyper, SurrogateSnapshot, FORMAT_VERSION, MAGIC};
pub use store::{IndexStats, SurrogateStore};

/// 64-bit FNV-1a of `bytes` — the hash behind
/// [`PlatformSignature::key`], and the workspace's one copy of it.
///
/// The multiplier is `0x1000_0000_01b3`, one zero more than the FNV
/// specification's prime `0x100_0000_01b3`: snapshot file names and
/// the eval crate's per-scenario seeds were derived with it, so it
/// stays. Do not expect the specification's test vectors.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes` —
/// the checksum guarding every snapshot body.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_values_are_pinned() {
        // Computed outside this crate, with this workspace's multiplier.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0xf8ac_2471_f739_67e8);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"adaphet"), crc32(b"adaphet"));
        assert_ne!(crc32(b"adaphet"), crc32(b"adaphet "));
    }
}
