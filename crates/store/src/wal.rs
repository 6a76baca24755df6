//! Checksummed, length-prefixed record framing for the WAL and snapshot
//! files.
//!
//! Both files share one layout:
//!
//! ```text
//! [8-byte magic][u32 version]                  — file header, 12 bytes
//! [u32 len][u64 fnv64(payload)][payload] ...   — zero or more frames
//! payload = [u64 cache key][encoded Adaptation]
//! ```
//!
//! All integers are little-endian. The only difference between the WAL and
//! a snapshot is the magic (`qcawal01` vs `qcasnp01`) — snapshots are just
//! a WAL that was rewritten with one frame per live key.
//!
//! # Recovery rules
//!
//! [`scan`] walks frames from the header forward and accepts the longest
//! *prefix* of intact frames. A frame is damaged when its length prefix is
//! short, implausibly large, or runs past end-of-file; when its checksum
//! does not match the payload; or when the payload fails to decode. The
//! first damaged frame ends the scan — everything before it is durable,
//! everything from it onward is a torn tail from an interrupted write and
//! is reported as `dropped_bytes` for the caller to truncate away. A bad
//! or short header rejects the whole file.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};

use qca_circuit::hash::Fnv64;

use crate::wire::decode_adaptation;

/// Magic for write-ahead log files.
pub const MAGIC_WAL: [u8; 8] = *b"qcawal01";
/// Magic for compacted snapshot files.
pub const MAGIC_SNAP: [u8; 8] = *b"qcasnp01";
/// On-disk format version, bumped on incompatible layout changes (2: a
/// certified record holds its formula once); other versions are discarded.
pub const VERSION: u32 = 2;
/// Bytes of file header preceding the first frame.
pub const HEADER_LEN: u64 = 12;
/// Per-frame overhead: `u32` length + `u64` checksum.
pub const FRAME_OVERHEAD: u64 = 12;
/// Upper bound on a single payload; larger length prefixes are corruption.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Checksum over a frame payload (key bytes included).
fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(payload);
    h.finish()
}

/// Writes a fresh file header. The caller positions the file.
pub fn write_header(f: &mut File, magic: [u8; 8]) -> io::Result<()> {
    f.write_all(&magic)?;
    f.write_all(&VERSION.to_le_bytes())
}

/// Serializes one frame (length prefix, checksum, payload) for `key`.
pub fn frame_bytes(key: u64, value: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + value.len());
    payload.extend_from_slice(&key.to_le_bytes());
    payload.extend_from_slice(value);
    let mut out = Vec::with_capacity(FRAME_OVERHEAD as usize + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// One intact frame found by [`scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLoc {
    /// Cache key stored in the frame.
    pub key: u64,
    /// File offset of the frame's length prefix.
    pub offset: u64,
    /// Total frame size including the 12-byte overhead.
    pub len: u64,
}

/// Result of walking a WAL or snapshot file.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Intact frames in file order (oldest first).
    pub frames: Vec<FrameLoc>,
    /// File length up to and including the last intact frame; the file
    /// should be truncated here if `dropped_bytes > 0`.
    pub good_len: u64,
    /// Bytes of torn tail past the last intact frame.
    pub dropped_bytes: u64,
    /// True when the header itself was missing or damaged, in which case
    /// the whole file is discarded (`good_len` covers just a fresh header).
    pub bad_header: bool,
}

/// Walks every frame in `bytes` (the full file contents) and applies the
/// recovery rules above.
pub fn scan(bytes: &[u8], magic: [u8; 8]) -> ScanResult {
    let mut r = ScanResult {
        good_len: HEADER_LEN,
        ..ScanResult::default()
    };
    if bytes.len() < HEADER_LEN as usize
        || bytes[..8] != magic
        || bytes[8..12] != VERSION.to_le_bytes()
    {
        r.bad_header = true;
        r.dropped_bytes = bytes.len() as u64;
        return r;
    }
    let mut pos = HEADER_LEN as usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let Some(frame) = check_frame(rest) else {
            break;
        };
        r.frames.push(FrameLoc {
            key: frame.0,
            offset: pos as u64,
            len: frame.1,
        });
        pos += frame.1 as usize;
    }
    r.good_len = pos as u64;
    r.dropped_bytes = (bytes.len() - pos) as u64;
    r
}

/// Validates the frame at the start of `rest`; returns `(key, frame_len)`
/// when intact.
fn check_frame(rest: &[u8]) -> Option<(u64, u64)> {
    if rest.len() < FRAME_OVERHEAD as usize {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
    if !(8..=MAX_PAYLOAD).contains(&len) {
        return None;
    }
    let total = FRAME_OVERHEAD as usize + len as usize;
    if rest.len() < total {
        return None;
    }
    let want = u64::from_le_bytes(rest[4..12].try_into().unwrap());
    let payload = &rest[12..total];
    if checksum(payload) != want {
        return None;
    }
    let key = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    // A frame whose checksum matches but whose payload does not decode was
    // written by a future or foreign producer; treat it as damage too.
    if decode_adaptation(&payload[8..]).is_err() {
        return None;
    }
    Some((key, total as u64))
}

/// Reads the value bytes of the frame at `offset` (checksum re-verified, so
/// a record damaged *after* recovery is caught at read time too).
pub fn read_value_at(f: &mut File, loc: FrameLoc) -> io::Result<Option<Vec<u8>>> {
    f.seek(SeekFrom::Start(loc.offset))?;
    let mut frame = vec![0u8; loc.len as usize];
    if f.read_exact(&mut frame).is_err() {
        return Ok(None);
    }
    match check_frame(&frame) {
        Some((key, _)) if key == loc.key => Ok(Some(frame[20..].to_vec())),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_adapt::{Adaptation, SmtAdaptation};
    use qca_circuit::{Circuit, Gate};
    use qca_sat::SolverStats;

    fn tiny_adaptation() -> Adaptation {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        Adaptation {
            circuit: c.clone(),
            reference: c,
            chosen: Vec::new(),
            catalog_size: 3,
            solver: SmtAdaptation {
                chosen: vec![0],
                objective_value: 5,
                queries: 1,
                sat_vars: 4,
                optimal: true,
                solver_stats: SolverStats::default(),
                verification: None,
            },
        }
    }

    fn file_with_frames(n: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_WAL);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        let value = crate::wire::encode_adaptation(&tiny_adaptation());
        for k in 0..n {
            bytes.extend_from_slice(&frame_bytes(k as u64, &value));
        }
        bytes
    }

    #[test]
    fn scan_accepts_intact_files() {
        let bytes = file_with_frames(3);
        let r = scan(&bytes, MAGIC_WAL);
        assert!(!r.bad_header);
        assert_eq!(r.frames.len(), 3);
        assert_eq!(r.good_len, bytes.len() as u64);
        assert_eq!(r.dropped_bytes, 0);
        assert_eq!(r.frames[2].key, 2);
    }

    #[test]
    fn torn_tail_drops_only_the_damaged_suffix() {
        let bytes = file_with_frames(3);
        let full = bytes.len();
        // Cut mid-way through the last frame.
        let r = scan(&bytes[..full - 5], MAGIC_WAL);
        assert_eq!(r.frames.len(), 2);
        assert!(r.dropped_bytes > 0);
        assert_eq!(r.good_len + r.dropped_bytes, (full - 5) as u64);
    }

    #[test]
    fn bit_flip_in_payload_drops_that_frame_onward() {
        let mut bytes = file_with_frames(3);
        let r0 = scan(&bytes, MAGIC_WAL);
        // Flip one bit inside the second frame's payload.
        let target = (r0.frames[1].offset + FRAME_OVERHEAD + 10) as usize;
        bytes[target] ^= 0x40;
        let r = scan(&bytes, MAGIC_WAL);
        assert_eq!(r.frames.len(), 1);
        assert_eq!(r.frames[0].key, 0);
        assert!(r.dropped_bytes > 0);
    }

    #[test]
    fn wrong_magic_rejects_the_file() {
        let bytes = file_with_frames(1);
        let r = scan(&bytes, MAGIC_SNAP);
        assert!(r.bad_header);
        assert_eq!(r.good_len, HEADER_LEN);
    }

    #[test]
    fn empty_and_header_only_files_are_clean() {
        let r = scan(&[], MAGIC_WAL);
        assert!(r.bad_header);
        let bytes = file_with_frames(0);
        let r = scan(&bytes, MAGIC_WAL);
        assert!(!r.bad_header);
        assert!(r.frames.is_empty());
        assert_eq!(r.dropped_bytes, 0);
    }
}
