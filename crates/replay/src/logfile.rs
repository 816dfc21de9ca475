//! Versioned on-disk format for [`ReplayLog`]s.
//!
//! Layout: 8-byte magic `CHMRLOG1` · u32 version · u64 body length ·
//! PUP-packed body · u64 FNV-1a checksum of the body. Everything
//! little-endian (the PUP wire format). The checksum catches truncation
//! and corruption before a malformed stream can panic the unpacker.

use crate::ReplayLog;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CHMRLOG1";
const VERSION: u32 = 1;

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

/// Serialize `log` to `path` through [`charm_core::write_atomic`] (a crash
/// leaves the old file or the whole new one). Packs from the borrowed log:
/// no second copy is held while writing.
pub fn save(log: &ReplayLog, path: &Path) -> std::io::Result<()> {
    let body = log.to_bytes();
    let sum = charm_pup::fnv1a(&body);
    charm_core::write_atomic(path, |f| {
        f.write_all(MAGIC)?;
        f.write_all(&VERSION.to_le_bytes())?;
        f.write_all(&(body.len() as u64).to_le_bytes())?;
        f.write_all(&body)?;
        f.write_all(&sum.to_le_bytes())
    })
}

/// Load a log written by [`save`], validating magic, version, and checksum.
/// The body unpacks straight into the flat in-memory form.
pub fn load(path: &Path) -> Result<ReplayLog, LogError> {
    let mut f = std::fs::File::open(path)?;
    let mut data = Vec::new();
    f.read_to_end(&mut data)?;
    if data.len() < 8 + 4 + 8 + 8 {
        return Err(LogError::Corrupt("file shorter than header".into()));
    }
    if &data[..8] != MAGIC {
        return Err(LogError::BadMagic);
    }
    let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(LogError::BadVersion(version));
    }
    let body_len = u64::from_le_bytes(data[12..20].try_into().unwrap()) as usize;
    let expect = 20 + body_len + 8;
    if data.len() != expect {
        return Err(LogError::Corrupt(format!(
            "expected {expect} bytes, found {}",
            data.len()
        )));
    }
    let body = &data[20..20 + body_len];
    let sum = u64::from_le_bytes(data[20 + body_len..].try_into().unwrap());
    if charm_pup::fnv1a(body) != sum {
        return Err(LogError::Corrupt("checksum mismatch".into()));
    }
    // A checksummed body can still be malformed (written by something else):
    // the unpacker panics on it, and the panic becomes an error here.
    std::panic::catch_unwind(|| charm_pup::from_bytes_exact::<ReplayLog>(body))
        .unwrap_or_else(|_| Err("the unpacker rejected it".into()))
        .map_err(|e| LogError::Corrupt(format!("body does not unpack: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn roundtrip_and_integrity() {
        let dir = std::env::temp_dir().join("charm_replay_logfile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.rlog");
        save(&sample(), &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.app, "sample");
        assert_eq!(back.entry_names, vec!["X::on_message".to_string()]);

        // Flip one body byte: checksum must catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = 20 + (bytes.len() - 28) / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(LogError::Corrupt(_))));

        // Truncation is caught too.
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(LogError::Corrupt(_))));

        std::fs::write(&path, b"NOTALOG!xxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(load(&path), Err(LogError::BadMagic)));
    }

    /// The temp file is `<name>.tmp`, not the name with its extension
    /// swapped: saving `x.rlog` leaves an unrelated `x.tmp` alone.
    #[test]
    fn save_leaves_a_neighbouring_tmp_file_intact() {
        let dir = std::env::temp_dir().join("charm_replay_logfile_tmp_test");
        std::fs::create_dir_all(&dir).unwrap();
        let other = dir.join("x.tmp");
        std::fs::write(&other, b"not ours").unwrap();
        let path = dir.join("x.rlog");
        save(&sample(), &path).unwrap();
        assert_eq!(std::fs::read(&other).unwrap(), b"not ours");
        assert!(!dir.join("x.rlog.tmp").exists(), "the temp file was renamed away");
        assert_eq!(load(&path).unwrap().app, "sample");
    }

    /// A body with a valid checksum that this build cannot hold — an exec
    /// whose `seq` is not its index — is reported, not a panic.
    #[test]
    fn malformed_body_with_valid_checksum_is_corrupt() {
        let mut log = sample();
        log.chares = vec![charm_core::ObjId::default()];
        log.execs = [crate::ExecRec {
            pe: 0xABCD_EF01,
            ..Default::default()
        }]
        .into_iter()
        .collect();
        let mut body = log.to_bytes();
        let pe = body
            .windows(4)
            .position(|w| w == 0xABCD_EF01u32.to_le_bytes())
            .expect("the exec's PE is in the body");
        body[pe - 8..pe].copy_from_slice(&5u64.to_le_bytes());
        let mut file = MAGIC.to_vec();
        file.extend_from_slice(&VERSION.to_le_bytes());
        file.extend_from_slice(&(body.len() as u64).to_le_bytes());
        file.extend_from_slice(&body);
        file.extend_from_slice(&charm_pup::fnv1a(&body).to_le_bytes());
        let dir = std::env::temp_dir().join("charm_replay_logfile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seq.rlog");
        std::fs::write(&path, &file).unwrap();
        assert!(matches!(load(&path), Err(LogError::Corrupt(_))));
    }
}
