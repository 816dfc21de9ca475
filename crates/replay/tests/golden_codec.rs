//! `.rlog` v2 against the committed v1 goldens: every golden loads through
//! the v1 reader, goes to disk as v2 and back unchanged, and its v1
//! encoding reproduces the committed file byte for byte. A v2 file with a
//! flipped byte or cut short is refused with the chunk named, and so is a
//! v1 file whose checksum holds but whose body does not decode.

use charm_replay::{load, save, LogError, ReplayLog};
use std::path::{Path, PathBuf};

#[path = "support/v1.rs"]
mod v1;

const GOLDENS: [&str; 5] = ["stencil", "leanmd", "pdes", "pdes_tram", "kv_lb"];

fn golden(app: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{app}.rlog"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("charm_golden_codec_{}_{name}", std::process::id()))
}

fn corrupt(path: &Path) -> String {
    match load(path) {
        Err(LogError::Corrupt(why)) => why,
        other => panic!(
            "{}: expected a corrupt log, got {:?}",
            path.display(),
            other.map(|l| l.app)
        ),
    }
}

#[test]
fn goldens_convert_v1_to_v2_to_v1_byte_for_byte() {
    for app in GOLDENS {
        let committed = std::fs::read(golden(app)).unwrap();
        assert_eq!(
            &committed[8..12],
            &1u32.to_le_bytes(),
            "{app}: the goldens are v1 files"
        );
        let from_v1 = load(&golden(app)).unwrap();
        assert!(!from_v1.execs.is_empty(), "{app}: an empty golden");
        let path = temp(&format!("{app}.rlog"));
        save(&from_v1, &path).unwrap();
        let v2 = std::fs::read(&path).unwrap();
        assert_eq!(&v2[8..12], &2u32.to_le_bytes(), "{app}: save writes v2");
        let from_v2 = load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(from_v2 == from_v1, "{app}: v1 -> v2 changed the log");
        assert!(
            v1::v1_file(&from_v2) == committed,
            "{app}: v2 -> v1 is not the committed file"
        );
    }
}

#[test]
fn corrupt_v2_files_name_the_chunk() {
    let log: ReplayLog = load(&golden("kv_lb")).unwrap();
    let path = temp("kv_lb_corrupt.rlog");
    save(&log, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // The first exec chunk follows the magic, the version and the header
    // frame.
    let header = 12 + 12 + u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let chunk_len = u32::from_le_bytes(bytes[header + 4..header + 8].try_into().unwrap()) as usize;
    assert!(chunk_len > 100, "a real chunk");

    let mut flipped = bytes.clone();
    flipped[header + 12 + chunk_len / 2] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    let why = corrupt(&path);
    assert!(
        why.starts_with("exec chunk 0 of") && why.contains("CRC"),
        "{why}"
    );

    std::fs::write(&path, &bytes[..header + 12 + chunk_len / 2]).unwrap();
    let why = corrupt(&path);
    assert!(
        why.starts_with("exec chunk 0 of") && why.contains("truncated"),
        "{why}"
    );
    let _ = std::fs::remove_file(&path);
}

/// A v1 body whose checksum holds but whose first exec carries the wrong
/// `seq` is reported, not a panic.
#[test]
fn v1_body_with_valid_checksum_that_does_not_decode_is_corrupt() {
    let mut file = std::fs::read(golden("stencil")).unwrap();
    let log = load(&golden("stencil")).unwrap();
    let body_len = u64::from_le_bytes(file[12..20].try_into().unwrap()) as usize;
    let mut p = charm_pup::Puper::sizer();
    p.p(&mut log.app.clone());
    p.p(&mut log.machine.clone());
    p.p(&mut [0u64; 4]);
    p.p(&mut 0f64);
    p.p(&mut log.entry_names.clone());
    p.p(&mut 0u64);
    let seq = 20 + p.size();
    file[seq..seq + 8].copy_from_slice(&5u64.to_le_bytes());
    let sum = charm_pup::fnv1a(&file[20..20 + body_len]);
    file[20 + body_len..].copy_from_slice(&sum.to_le_bytes());
    let path = temp("stencil_seq.rlog");
    std::fs::write(&path, &file).unwrap();
    let why = corrupt(&path);
    let _ = std::fs::remove_file(&path);
    assert!(why.contains("seq"), "{why}");
}
