//! The `.rlog` v1 writer, kept beside the tests as the reference the golden
//! checks compare bytes with: the library reads v1 and writes only v2.

use charm_core::replay::ReplayLog;
use charm_pup::Puper;

/// `log` as a whole v1 file: `CHMRLOG1` · u32 version 1 · u64 body length ·
/// body · u64 FNV-1a of the body. The body nests: an exec carries its index
/// as `seq`, its chares as `ObjId`s and its sends as a list.
pub fn v1_file(log: &ReplayLog) -> Vec<u8> {
    let mut p = Puper::packer(0);
    p.p(&mut log.app.clone());
    p.p(&mut log.machine.clone());
    for mut v in [
        log.num_pes,
        log.seed,
        log.sched_overhead_ns,
        log.collective_arity,
    ] {
        p.p(&mut v);
    }
    p.p(&mut { log.flops_per_sec });
    p.p(&mut log.entry_names.clone());
    p.p(&mut (log.execs.len() as u64));
    for (i, (e, sends)) in log.execs.iter().enumerate() {
        p.p(&mut (i as u64));
        p.p(&mut { e.pe });
        p.p(&mut { e.start_ns });
        p.p(&mut { e.dur_ns });
        p.p(&mut log.chare(e.dst));
        p.p(&mut { e.entry });
        p.p(&mut { e.msg_id });
        p.p(&mut log.msg_src(&e));
        p.p(&mut { e.msg_digest });
        p.p(&mut (e.msg_bytes as u64));
        p.p(&mut { e.work });
        p.p(&mut { e.n_remote });
        p.p(&mut { e.n_local });
        p.p(&mut (sends.len() as u64));
        for mut s in sends {
            p.p(&mut s);
        }
    }
    p.p(&mut log.roots.clone());
    p.p(&mut log.state_points.clone());
    p.p(&mut log.final_state.clone());
    p.p(&mut { log.end_ns });
    let body = p.into_bytes();
    let mut file = b"CHMRLOG1".to_vec();
    file.extend_from_slice(&1u32.to_le_bytes());
    file.extend_from_slice(&(body.len() as u64).to_le_bytes());
    file.extend_from_slice(&body);
    file.extend_from_slice(&charm_pup::fnv1a(&body).to_le_bytes());
    file
}
