//! Versioned on-disk format for [`ReplayLog`]s.
//!
//! Every file starts with the 8-byte magic `CHMRLOG1` and a u32 version,
//! little-endian like the PUP wire format.
//!
//! * **v2** (written by [`save`]): the log's own bytes, framed
//!   ([`ReplayLog::write_v2`]) — a header frame, the exec chunks, the late
//!   chunks, a tables frame, each frame carrying its own CRC32. A
//!   corrupted or truncated file is reported with the frame it hits.
//! * **v1** (still read): u64 body length · PUP-packed nested body · u64
//!   FNV-1a checksum of the body.
//!
//! Checks run before a malformed stream can panic a decoder.

use crate::ReplayLog;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CHMRLOG1";
/// The nested layout, read by [`ReplayLog::read_v1`].
const V1: u32 = 1;
/// Chunks and tables, as [`ReplayLog::write_v2`] writes them.
const V2: u32 = 2;

/// Why a log failed to load.
#[derive(Debug)]
pub enum LogError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a replay log (bad magic).
    BadMagic,
    /// A version this build does not understand.
    BadVersion(u32),
    /// Truncated or corrupted body.
    Corrupt(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "replay log I/O error: {e}"),
            LogError::BadMagic => write!(f, "not a replay log (bad magic)"),
            LogError::BadVersion(v) => write!(f, "unsupported replay log version {v}"),
            LogError::Corrupt(why) => write!(f, "corrupt replay log: {why}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

/// Write `log` to `path` as `.rlog` v2 through [`charm_core::write_atomic`]
/// (a crash leaves the old file or the whole new one). The chunks are
/// written as they are held: nothing is encoded or copied.
pub fn save(log: &ReplayLog, path: &Path) -> std::io::Result<()> {
    charm_core::write_atomic(path, |f| {
        let mut w = std::io::BufWriter::new(f);
        w.write_all(MAGIC)?;
        w.write_all(&V2.to_le_bytes())?;
        log.write_v2(&mut w)?;
        w.flush()
    })
}

/// Load a log written by [`save`] (v2) or by an older build (v1),
/// validating magic, version and checksums before anything is decoded.
/// A v2 log keeps its chunks as they are in the file.
pub fn load(path: &Path) -> Result<ReplayLog, LogError> {
    let mut f = std::fs::File::open(path)?;
    let mut data = Vec::new();
    f.read_to_end(&mut data)?;
    if data.len() < 12 {
        return Err(LogError::Corrupt("file shorter than header".into()));
    }
    if &data[..8] != MAGIC {
        return Err(LogError::BadMagic);
    }
    let body = &data[12..];
    let read = match u32::from_le_bytes(data[8..12].try_into().unwrap()) {
        V1 => {
            let body = v1_body(body)?;
            std::panic::catch_unwind(|| ReplayLog::read_v1(body))
        }
        V2 => std::panic::catch_unwind(|| ReplayLog::read_v2(body)),
        v => return Err(LogError::BadVersion(v)),
    };
    // A checksummed frame or body can still be malformed (written by
    // something else): its decoder panics, and the panic becomes an error.
    read.unwrap_or_else(|_| Err("a part with a valid checksum does not decode".into()))
        .map_err(LogError::Corrupt)
}

/// The PUP body of a v1 file past its magic and version: u64 length ·
/// body · u64 FNV-1a checksum, checked.
fn v1_body(data: &[u8]) -> Result<&[u8], LogError> {
    let corrupt = |why: String| Err(LogError::Corrupt(why));
    let Some(len) = data.get(..8) else {
        return corrupt("file shorter than header".into());
    };
    let len = u64::from_le_bytes(len.try_into().unwrap());
    if Some(data.len() as u64) != len.checked_add(16) {
        return corrupt(format!(
            "expected {} bytes, found {}",
            len.saturating_add(28),
            data.len() + 12
        ));
    }
    let (body, sum) = data[8..].split_at(len as usize);
    if charm_pup::fnv1a(body).to_le_bytes() != sum {
        return corrupt("checksum mismatch".into());
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecRec, SendRec};

    fn sample() -> ReplayLog {
        ReplayLog {
            app: "sample".into(),
            machine: "homogeneous".into(),
            num_pes: 2,
            seed: 9,
            sched_overhead_ns: 250,
            collective_arity: 2,
            flops_per_sec: 1e9,
            entry_names: vec!["X::on_message".into()],
            end_ns: 123,
            ..Default::default()
        }
    }

    /// `sample` with 20 000 execs of one chare, a send each: several chunks.
    fn long_sample() -> ReplayLog {
        let exec = |i: u64| {
            let e = ExecRec {
                pe: i as u32 % 2,
                start_ns: 100 * i,
                dur_ns: 90,
                dst: 0,
                msg_id: i,
                msg_digest: i * 0x9E37_79B9,
                work: 1e3,
                ..Default::default()
            };
            let s = SendRec {
                msg_id: i + 1,
                bytes: 48,
                ..Default::default()
            };
            (e, vec![s])
        };
        ReplayLog {
            chares: vec![charm_core::ObjId::default()],
            execs: (0..20_000).map(exec).collect(),
            ..sample()
        }
    }

    fn temp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("charm_replay_logfile_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Offsets of the frames of a v2 file: header, chunks, tables.
    fn frames(file: &[u8]) -> Vec<usize> {
        let mut at = 12;
        let mut out = Vec::new();
        while at < file.len() {
            out.push(at);
            at += 12 + u32::from_le_bytes(file[at + 4..at + 8].try_into().unwrap()) as usize;
        }
        out
    }

    fn corrupt(path: &Path) -> String {
        match load(path) {
            Err(LogError::Corrupt(why)) => why,
            other => panic!("expected a corrupt log, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_and_integrity() {
        let path = temp("a.rlog");
        let log = long_sample();
        save(&log, &path).unwrap();
        assert_eq!(
            load(&path).unwrap(),
            log,
            "the chunks come back as they were"
        );
        let bytes = std::fs::read(&path).unwrap();
        let at = frames(&bytes);
        assert!(at.len() > 4, "a header, several chunks and the tables");

        // One flipped byte inside the second chunk names that chunk.
        let mut flipped = bytes.clone();
        flipped[at[2] + 12 + 7] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        let why = corrupt(&path);
        assert!(
            why.starts_with("exec chunk 1 of") && why.ends_with("CRC mismatch"),
            "{why}"
        );

        // A file cut inside a chunk names it too, and one cut in the tables
        // says so.
        std::fs::write(&path, &bytes[..at[3] - 5]).unwrap();
        let why = corrupt(&path);
        assert!(
            why.starts_with("exec chunk 1 of") && why.contains("truncated"),
            "{why}"
        );
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(corrupt(&path).starts_with("tables"));

        std::fs::write(&path, b"NOTALOG!xxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(load(&path), Err(LogError::BadMagic)));
        let mut v9 = bytes.clone();
        v9[8..12].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &v9).unwrap();
        assert!(matches!(load(&path), Err(LogError::BadVersion(9))));
    }

    /// The temp file is `<name>.tmp`, not the name with its extension
    /// swapped: saving `x.rlog` leaves an unrelated `x.tmp` alone.
    #[test]
    fn save_leaves_a_neighbouring_tmp_file_intact() {
        let other = temp("x.tmp");
        std::fs::write(&other, b"not ours").unwrap();
        let path = temp("x.rlog");
        save(&sample(), &path).unwrap();
        assert_eq!(std::fs::read(&other).unwrap(), b"not ours");
        assert!(
            !temp("x.rlog.tmp").exists(),
            "the temp file was renamed away"
        );
        assert_eq!(load(&path).unwrap().app, "sample");
    }

    /// A chunk whose CRC holds but whose frame claims a record it does not
    /// hold is reported, not a panic.
    #[test]
    fn chunk_with_valid_checksum_that_does_not_decode_is_corrupt() {
        let path = temp("records.rlog");
        save(&long_sample(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let chunk = frames(&bytes)[1];
        let records = u32::from_le_bytes(bytes[chunk..chunk + 4].try_into().unwrap());
        bytes[chunk..chunk + 4].copy_from_slice(&(records + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let why = corrupt(&path);
        assert!(why.starts_with("exec chunk 0 of"), "{why}");
    }
}
