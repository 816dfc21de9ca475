//! Byte-exact trace formatters: the one family of writers that both the
//! streaming sinks ([`crate::tsink`]) and the in-memory exporters
//! ([`Runtime::trace_chrome_json`](crate::Runtime::trace_chrome_json) and
//! friends) funnel every record through, so their outputs agree
//! byte-for-byte.
//!
//! Every writer appends straight into the caller's buffer: integers and
//! [`Ix`] values are emitted by hand (no `core::fmt`, no intermediate
//! `String`), and array names arrive pre-escaped from the [`NameTable`] —
//! the per-record path performs no heap allocation beyond the buffer's own
//! amortized growth. The `format!`-based originals survive as the
//! reference model in this module's tests, which property-check the
//! writers against them.

use crate::index::Ix;
use crate::trace::{NameTable, TraceEventKind, TraceRecord};
use charm_machine::SimTime;
use std::io::Write as _;

/// CSV header row (with trailing newline).
pub(crate) const CSV_HEADER: &str = "t_ns,track,kind,name,dur_ns,bytes,a,b\n";

/// Opening of a Chrome trace-event file; one [`write_chrome_track`] line
/// per track follows, then the events.
pub(crate) const CHROME_OPEN: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

/// Closing bracket of a Chrome trace-event file.
pub(crate) const CHROME_TAIL: &str = "\n]}\n";

/// `00`..`99` as ASCII pairs: two digits per division in [`push_u64`].
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

#[inline]
fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
}

/// Decimal `v`, as `{}` would print it.
#[inline]
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

#[inline]
fn push_usize(out: &mut Vec<u8>, v: usize) {
    push_u64(out, v as u64);
}

#[inline]
fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Exact microseconds (`ns / 1000` with three fractional digits) — float
/// formatting is bypassed so exports are byte-deterministic.
#[inline]
fn push_us(out: &mut Vec<u8>, t: SimTime) {
    let ns = t.as_nanos();
    push_u64(out, ns / 1000);
    let frac = (ns % 1000) as u32;
    out.extend_from_slice(&[
        b'.',
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ]);
}

/// `a, b, c` inside the brackets of a multi-dimensional index.
fn push_dims(out: &mut Vec<u8>, tag: &str, dims: &[i32]) {
    push_str(out, tag);
    for (i, &d) in dims.iter().enumerate() {
        if i > 0 {
            push_str(out, ", ");
        }
        push_i64(out, d as i64);
    }
    push_str(out, "])");
}

/// `ix` exactly as its derived `{:?}` prints it.
fn push_ix(out: &mut Vec<u8>, ix: &Ix) {
    match ix {
        Ix::I1(a) => {
            push_str(out, "I1(");
            push_i64(out, *a);
            out.push(b')');
        }
        Ix::I2(d) => push_dims(out, "I2([", d),
        Ix::I3(d) => push_dims(out, "I3([", d),
        Ix::I4(d) => push_dims(out, "I4([", d),
        Ix::I6(d) => push_dims(out, "I6([", d),
        Ix::Bits { bits, len } => {
            push_str(out, "Bits { bits: ");
            push_u64(out, *bits);
            push_str(out, ", len: ");
            push_u64(out, *len as u64);
            push_str(out, " }");
        }
        Ix::Named(h) => {
            push_str(out, "Named(");
            push_u64(out, *h);
            out.push(b')');
        }
    }
}

/// `s` with `\` and `"` backslash-escaped (all the escaping the exports
/// have ever applied to names).
pub(crate) fn push_json_escaped(out: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        if b == b'\\' || b == b'"' {
            out.push(b'\\');
        }
        out.push(b);
    }
}

/// The formatters only ever append `&str` pieces and ASCII digits.
pub(crate) fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("trace formatters emit UTF-8")
}

/// The `thread_name` metadata line naming one track.
pub(crate) fn write_chrome_track(out: &mut Vec<u8>, track: usize, rts_track: usize) {
    push_str(
        out,
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":",
    );
    push_usize(out, track);
    push_str(out, ",\"args\":{\"name\":\"");
    if track == rts_track {
        push_str(out, "RTS");
    } else {
        push_str(out, "PE ");
        push_usize(out, track);
    }
    push_str(out, "\"}},\n");
}

/// `,"ts":<µs>` … `,"pid":0,"tid":<track>` — the fields every event shares.
#[inline]
fn push_ts_tid(out: &mut Vec<u8>, rec: &TraceRecord, dur: Option<SimTime>) {
    push_str(out, ",\"ts\":");
    push_us(out, rec.t);
    if let Some(dur) = dur {
        push_str(out, ",\"dur\":");
        push_us(out, dur);
    }
    push_str(out, ",\"pid\":0,\"tid\":");
    push_usize(out, rec.track);
}

/// `send` / `recv` instant: the two differ in one key and one PE.
#[inline]
fn push_msg_event(
    out: &mut Vec<u8>,
    rec: &TraceRecord,
    name: &str,
    pe_key: &str,
    pe: usize,
    bytes: usize,
    dst: &Ix,
) {
    push_str(out, "{\"name\":\"");
    push_str(out, name);
    push_str(out, "\",\"cat\":\"msg\",\"ph\":\"i\"");
    push_ts_tid(out, rec, None);
    push_str(out, ",\"s\":\"t\",\"args\":{\"");
    push_str(out, pe_key);
    push_str(out, "\":");
    push_usize(out, pe);
    push_str(out, ",\"bytes\":");
    push_usize(out, bytes);
    push_str(out, ",\"dst\":\"");
    push_ix(out, dst);
    push_str(out, "\"}}");
}

/// One Chrome trace event (no separators).
pub(crate) fn write_chrome_event(out: &mut Vec<u8>, rec: &TraceRecord, names: &NameTable) {
    match &rec.kind {
        TraceEventKind::Entry { obj, entry, dur } => {
            push_str(out, "{\"name\":\"");
            push_str(out, names.array_json(obj.array));
            push_str(out, "::");
            push_json_escaped(out, entry.label());
            push_str(out, "\",\"cat\":\"entry\",\"ph\":\"X\"");
            push_ts_tid(out, rec, Some(*dur));
            push_str(out, ",\"args\":{\"ix\":\"");
            push_ix(out, &obj.ix);
            push_str(out, "\"}}");
        }
        TraceEventKind::MsgSend { dst, dst_pe, bytes } => {
            push_msg_event(out, rec, "send", "to_pe", *dst_pe, *bytes, &dst.ix);
        }
        TraceEventKind::MsgRecv { src_pe, dst, bytes } => {
            push_msg_event(out, rec, "recv", "from_pe", *src_pe, *bytes, &dst.ix);
        }
        TraceEventKind::PeBusy | TraceEventKind::PeIdle => {
            push_str(out, "{\"name\":\"busy\",\"cat\":\"pe\",\"ph\":\"C\"");
            push_ts_tid(out, rec, None);
            push_str(out, ",\"args\":{\"busy\":");
            out.push(if matches!(rec.kind, TraceEventKind::PeBusy) {
                b'1'
            } else {
                b'0'
            });
            push_str(out, "}}");
        }
        other => {
            push_str(out, "{\"name\":\"");
            push_str(out, rts_name(other));
            push_str(out, "\",\"cat\":\"rts\",\"ph\":\"i\"");
            push_ts_tid(out, rec, None);
            push_str(out, ",\"s\":\"g\",\"args\":{");
            push_rts_args(out, other);
            push_str(out, "}}");
        }
    }
}

/// One CSV row, trailing newline included.
pub(crate) fn write_csv_row(out: &mut Vec<u8>, rec: &TraceRecord, names: &NameTable) {
    // t_ns,track,kind,name,dur_ns,bytes,a,b
    push_u64(out, rec.t.as_nanos());
    out.push(b',');
    push_usize(out, rec.track);
    match &rec.kind {
        TraceEventKind::Entry { obj, entry, dur } => {
            push_str(out, ",entry,");
            push_str(out, names.array_name(obj.array));
            push_str(out, "::");
            push_str(out, entry.label());
            out.push(b',');
            push_u64(out, dur.as_nanos());
            push_str(out, ",0,0,0\n");
        }
        TraceEventKind::MsgSend { dst_pe, bytes, .. } => {
            push_str(out, ",send,,0,");
            push_csv_tail(out, [*bytes, rec.track, *dst_pe]);
        }
        TraceEventKind::MsgRecv { src_pe, bytes, .. } => {
            push_str(out, ",recv,,0,");
            push_csv_tail(out, [*bytes, *src_pe, rec.track]);
        }
        TraceEventKind::PeBusy => push_str(out, ",busy,,0,0,0,0\n"),
        TraceEventKind::PeIdle => push_str(out, ",idle,,0,0,0,0\n"),
        other => {
            out.push(b',');
            push_str(out, rts_name(other));
            push_str(out, ",,");
            let (dur, cols) = match other {
                TraceEventKind::LbEnd {
                    migrations, cost, ..
                } => (cost.as_nanos(), [0, *migrations, 0]),
                TraceEventKind::Migration { from_pe, to_pe, .. } => (0, [0, *from_pe, *to_pe]),
                TraceEventKind::CkptBegin { chares, bytes } => (0, [*bytes, *chares, 0]),
                TraceEventKind::NodeFail { first_pe, num_pes } => (0, [0, *first_pe, *num_pes]),
                TraceEventKind::Reconfigure { from, to } => (0, [0, *from, *to]),
                _ => (0, [0; 3]),
            };
            push_u64(out, dur);
            out.push(b',');
            push_csv_tail(out, cols);
        }
    }
}

/// `bytes,a,b` and the newline that close a CSV row.
#[inline]
fn push_csv_tail(out: &mut Vec<u8>, [bytes, a, b]: [usize; 3]) {
    push_usize(out, bytes);
    out.push(b',');
    push_usize(out, a);
    out.push(b',');
    push_usize(out, b);
    out.push(b'\n');
}

/// Event name of the RTS-level kinds.
fn rts_name(kind: &TraceEventKind) -> &'static str {
    match kind {
        TraceEventKind::LbBegin { .. } => "lb_begin",
        TraceEventKind::LbEnd { .. } => "lb_end",
        TraceEventKind::Migration { .. } => "migration",
        TraceEventKind::CkptBegin { .. } => "ckpt_begin",
        TraceEventKind::CkptCommit => "ckpt_commit",
        TraceEventKind::CkptAbort => "ckpt_abort",
        TraceEventKind::NodeFail { .. } => "node_fail",
        TraceEventKind::Rollback { .. } => "rollback",
        TraceEventKind::Unrecoverable { .. } => "unrecoverable",
        TraceEventKind::DvfsFreq { .. } => "dvfs_freq",
        TraceEventKind::Reconfigure { .. } => "reconfigure",
        TraceEventKind::PreemptWarning { .. } => "preempt_warning",
        TraceEventKind::Evacuation { .. } => "evacuation",
        TraceEventKind::ElasticDecision { .. } => "elastic_decision",
        TraceEventKind::DegradedCapacity { .. } => "degraded",
        _ => "event",
    }
}

/// JSON `args` body of the RTS-level kinds. These fire a handful of times
/// per run, so the two float fields go through `core::fmt` (still straight
/// into `out`).
fn push_rts_args(out: &mut Vec<u8>, kind: &TraceEventKind) {
    // `"key":<int>` pairs, comma-separated, continuing whatever is there.
    fn ints(out: &mut Vec<u8>, first: bool, fields: &[(&str, usize)]) {
        for (i, (key, v)) in fields.iter().enumerate() {
            if !first || i > 0 {
                out.push(b',');
            }
            out.push(b'"');
            push_str(out, key);
            push_str(out, "\":");
            push_usize(out, *v);
        }
    }
    fn strategy(out: &mut Vec<u8>, name: &str) {
        push_str(out, "\"strategy\":\"");
        push_str(out, name);
        out.push(b'"');
    }
    match kind {
        TraceEventKind::LbBegin { strategy: s, objs } => {
            strategy(out, s);
            ints(out, false, &[("objs", *objs)]);
        }
        TraceEventKind::LbEnd {
            strategy: s,
            migrations,
            cost,
        } => {
            strategy(out, s);
            ints(out, false, &[("migrations", *migrations)]);
            push_str(out, ",\"cost_us\":");
            push_us(out, *cost);
        }
        TraceEventKind::Migration {
            obj,
            from_pe,
            to_pe,
        } => {
            push_str(out, "\"ix\":\"");
            push_ix(out, &obj.ix);
            out.push(b'"');
            ints(out, false, &[("from_pe", *from_pe), ("to_pe", *to_pe)]);
        }
        TraceEventKind::CkptBegin { chares, bytes } => {
            ints(out, true, &[("chares", *chares), ("bytes", *bytes)]);
        }
        TraceEventKind::NodeFail { first_pe, num_pes } => {
            ints(out, true, &[("first_pe", *first_pe), ("num_pes", *num_pes)]);
        }
        TraceEventKind::Rollback { to, chares } => {
            push_str(out, "\"to_us\":");
            push_us(out, *to);
            ints(out, false, &[("chares", *chares)]);
        }
        TraceEventKind::Unrecoverable { lost } => ints(out, true, &[("lost", *lost)]),
        TraceEventKind::DvfsFreq { chip, freq_factor } => {
            ints(out, true, &[("chip", *chip)]);
            let _ = write!(out, ",\"freq\":{freq_factor:.4}");
        }
        TraceEventKind::Reconfigure { from, to } => {
            ints(out, true, &[("from", *from), ("to", *to)]);
        }
        TraceEventKind::PreemptWarning {
            first_pe,
            num_pes,
            deadline,
            proactive,
        } => {
            ints(out, true, &[("first_pe", *first_pe), ("num_pes", *num_pes)]);
            push_str(out, ",\"deadline_us\":");
            push_us(out, *deadline);
            push_str(out, ",\"proactive\":");
            push_str(out, if *proactive { "true" } else { "false" });
        }
        TraceEventKind::Evacuation {
            chares,
            first_pe,
            num_pes,
        } => ints(
            out,
            true,
            &[
                ("chares", *chares),
                ("first_pe", *first_pe),
                ("num_pes", *num_pes),
            ],
        ),
        TraceEventKind::ElasticDecision { from, to, util } => {
            ints(out, true, &[("from", *from), ("to", *to)]);
            let _ = write!(out, ",\"util\":{util:.4}");
        }
        TraceEventKind::DegradedCapacity { have, floor } => {
            ints(out, true, &[("have", *have), ("floor", *floor)]);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayId, ObjId};
    use crate::trace::EntryKind;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// The `format!`-based formatters the writers above replaced, kept
    /// verbatim as the byte-exact reference.
    mod model {
        use super::*;

        pub fn us(t: SimTime) -> String {
            let ns = t.as_nanos();
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }

        pub fn json_escape(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }

        pub fn chrome_header(out: &mut String, num_tracks: usize, rts_track: usize) {
            out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
            for track in 0..num_tracks {
                let name = if track == rts_track {
                    "RTS".to_string()
                } else {
                    format!("PE {track}")
                };
                let _ = writeln!(
                    out,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{track},\"args\":{{\"name\":\"{name}\"}}}},"
                );
            }
        }

        pub fn chrome_event(out: &mut String, rec: &TraceRecord, names: &NameTable) {
            let ts = us(rec.t);
            let tid = rec.track;
            match &rec.kind {
                TraceEventKind::Entry { obj, entry, dur } => {
                    let name = json_escape(&names.entry_name(obj.array, *entry));
                    let _ = write!(
                        out,
                        "{{\"name\":\"{name}\",\"cat\":\"entry\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{{\"ix\":\"{:?}\"}}}}",
                        us(*dur),
                        obj.ix
                    );
                }
                TraceEventKind::MsgSend { dst, dst_pe, bytes } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"send\",\"cat\":\"msg\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"s\":\"t\",\"args\":{{\"to_pe\":{dst_pe},\"bytes\":{bytes},\"dst\":\"{:?}\"}}}}",
                        dst.ix
                    );
                }
                TraceEventKind::MsgRecv { src_pe, dst, bytes } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"recv\",\"cat\":\"msg\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"s\":\"t\",\"args\":{{\"from_pe\":{src_pe},\"bytes\":{bytes},\"dst\":\"{:?}\"}}}}",
                        dst.ix
                    );
                }
                TraceEventKind::PeBusy | TraceEventKind::PeIdle => {
                    let v = if matches!(rec.kind, TraceEventKind::PeBusy) {
                        1
                    } else {
                        0
                    };
                    let _ = write!(
                        out,
                        "{{\"name\":\"busy\",\"cat\":\"pe\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{{\"busy\":{v}}}}}"
                    );
                }
                other => {
                    let (name, args) = rts_name_args(other);
                    let _ = write!(
                        out,
                        "{{\"name\":\"{name}\",\"cat\":\"rts\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"s\":\"g\",\"args\":{{{args}}}}}"
                    );
                }
            }
        }

        /// One CSV row (no trailing newline).
        pub fn csv_row(rec: &TraceRecord, names: &NameTable) -> String {
            let t = rec.t.as_nanos();
            let track = rec.track;
            match &rec.kind {
                TraceEventKind::Entry { obj, entry, dur } => format!(
                    "{t},{track},entry,{},{},0,0,0",
                    names.entry_name(obj.array, *entry),
                    dur.as_nanos()
                ),
                TraceEventKind::MsgSend { dst_pe, bytes, .. } => {
                    format!("{t},{track},send,,0,{bytes},{track},{dst_pe}")
                }
                TraceEventKind::MsgRecv { src_pe, bytes, .. } => {
                    format!("{t},{track},recv,,0,{bytes},{src_pe},{track}")
                }
                TraceEventKind::PeBusy => format!("{t},{track},busy,,0,0,0,0"),
                TraceEventKind::PeIdle => format!("{t},{track},idle,,0,0,0,0"),
                other => {
                    let (name, _) = rts_name_args(other);
                    match other {
                        TraceEventKind::LbEnd {
                            migrations, cost, ..
                        } => format!("{t},{track},{name},,{},0,{migrations},0", cost.as_nanos()),
                        TraceEventKind::Migration { from_pe, to_pe, .. } => {
                            format!("{t},{track},{name},,0,0,{from_pe},{to_pe}")
                        }
                        TraceEventKind::CkptBegin { chares, bytes } => {
                            format!("{t},{track},{name},,0,{bytes},{chares},0")
                        }
                        TraceEventKind::NodeFail { first_pe, num_pes } => {
                            format!("{t},{track},{name},,0,0,{first_pe},{num_pes}")
                        }
                        TraceEventKind::Reconfigure { from, to } => {
                            format!("{t},{track},{name},,0,0,{from},{to}")
                        }
                        _ => format!("{t},{track},{name},,0,0,0,0"),
                    }
                }
            }
        }

        fn rts_name_args(kind: &TraceEventKind) -> (&'static str, String) {
            match kind {
                TraceEventKind::LbBegin { strategy, objs } => {
                    ("lb_begin", format!("\"strategy\":\"{strategy}\",\"objs\":{objs}"))
                }
                TraceEventKind::LbEnd { strategy, migrations, cost } => (
                    "lb_end",
                    format!(
                        "\"strategy\":\"{strategy}\",\"migrations\":{migrations},\"cost_us\":{}",
                        us(*cost)
                    ),
                ),
                TraceEventKind::Migration { obj, from_pe, to_pe } => (
                    "migration",
                    format!("\"ix\":\"{:?}\",\"from_pe\":{from_pe},\"to_pe\":{to_pe}", obj.ix),
                ),
                TraceEventKind::CkptBegin { chares, bytes } => {
                    ("ckpt_begin", format!("\"chares\":{chares},\"bytes\":{bytes}"))
                }
                TraceEventKind::CkptCommit => ("ckpt_commit", String::new()),
                TraceEventKind::CkptAbort => ("ckpt_abort", String::new()),
                TraceEventKind::NodeFail { first_pe, num_pes } => {
                    ("node_fail", format!("\"first_pe\":{first_pe},\"num_pes\":{num_pes}"))
                }
                TraceEventKind::Rollback { to, chares } => (
                    "rollback",
                    format!("\"to_us\":{},\"chares\":{chares}", us(*to)),
                ),
                TraceEventKind::Unrecoverable { lost } => {
                    ("unrecoverable", format!("\"lost\":{lost}"))
                }
                TraceEventKind::DvfsFreq { chip, freq_factor } => (
                    "dvfs_freq",
                    format!("\"chip\":{chip},\"freq\":{freq_factor:.4}"),
                ),
                TraceEventKind::Reconfigure { from, to } => {
                    ("reconfigure", format!("\"from\":{from},\"to\":{to}"))
                }
                TraceEventKind::PreemptWarning { first_pe, num_pes, deadline, proactive } => (
                    "preempt_warning",
                    format!(
                        "\"first_pe\":{first_pe},\"num_pes\":{num_pes},\"deadline_us\":{},\"proactive\":{proactive}",
                        us(*deadline)
                    ),
                ),
                TraceEventKind::Evacuation { chares, first_pe, num_pes } => (
                    "evacuation",
                    format!("\"chares\":{chares},\"first_pe\":{first_pe},\"num_pes\":{num_pes}"),
                ),
                TraceEventKind::ElasticDecision { from, to, util } => (
                    "elastic_decision",
                    format!("\"from\":{from},\"to\":{to},\"util\":{util:.4}"),
                ),
                TraceEventKind::DegradedCapacity { have, floor } => {
                    ("degraded", format!("\"have\":{have},\"floor\":{floor}"))
                }
                _ => ("event", String::new()),
            }
        }
    }

    /// Every `TraceEventKind` variant; `kind_from` below must cover them all.
    const KINDS: usize = 20;
    /// Every `Ix` variant.
    const IX_KINDS: u64 = 7;
    const LABELS: [&str; 4] = ["Reduction", "ResumeFromSync", "quo\"ted", "back\\slash\\"];
    const STRATEGIES: [&str; 3] = ["GreedyLb", "RefineLb", "HybridLb"];

    /// Boundary values first, then whatever the generator drew.
    fn edgy(sel: u64, raw: u64) -> u64 {
        match sel % 8 {
            0 => 0,
            1 => u64::MAX,
            2 => 999,
            3 => 1_000,
            4 => raw % 100,
            _ => raw,
        }
    }

    fn ix_from(v: &[u64]) -> Ix {
        let d = |i: usize| v[i] as i32;
        match v[0] % IX_KINDS {
            0 => Ix::I1(v[1] as i64),
            1 => Ix::I2([d(1), d(2)]),
            2 => Ix::I3([d(1), d(2), d(3)]),
            3 => Ix::I4([d(1), d(2), d(3), d(4)]),
            4 => Ix::I6([d(1), d(2), d(3), d(4), d(5), i32::MIN]),
            5 => Ix::Bits {
                bits: v[1],
                len: v[2] as u8,
            },
            _ => Ix::Named(v[1]),
        }
    }

    fn kind_from(sel: usize, v: &[u64], f: f64) -> TraceEventKind {
        let obj = ObjId {
            array: ArrayId((v[7] % 3) as u32),
            ix: ix_from(v),
        };
        let n = |i: usize| edgy(v[i] >> 3, v[i]) as usize;
        let t = |i: usize| SimTime(edgy(v[i] >> 3, v[i]));
        let entry = match v[6] % 5 {
            0 => EntryKind::Message,
            l => EntryKind::Event(LABELS[l as usize - 1]),
        };
        let strategy = STRATEGIES[v[6] as usize % STRATEGIES.len()];
        match sel {
            0 => TraceEventKind::Entry {
                obj,
                entry,
                dur: t(5),
            },
            1 => TraceEventKind::MsgSend {
                dst: obj,
                dst_pe: n(5),
                bytes: n(6),
            },
            2 => TraceEventKind::MsgRecv {
                src_pe: n(5),
                dst: obj,
                bytes: n(6),
            },
            3 => TraceEventKind::PeBusy,
            4 => TraceEventKind::PeIdle,
            5 => TraceEventKind::LbBegin {
                strategy,
                objs: n(5),
            },
            6 => TraceEventKind::Migration {
                obj,
                from_pe: n(5),
                to_pe: n(6),
            },
            7 => TraceEventKind::LbEnd {
                strategy,
                migrations: n(5),
                cost: t(4),
            },
            8 => TraceEventKind::CkptBegin {
                chares: n(5),
                bytes: n(6),
            },
            9 => TraceEventKind::CkptCommit,
            10 => TraceEventKind::CkptAbort,
            11 => TraceEventKind::NodeFail {
                first_pe: n(5),
                num_pes: n(6),
            },
            12 => TraceEventKind::Rollback {
                to: t(4),
                chares: n(5),
            },
            13 => TraceEventKind::Unrecoverable { lost: n(5) },
            14 => TraceEventKind::DvfsFreq {
                chip: n(5),
                freq_factor: f,
            },
            15 => TraceEventKind::Reconfigure {
                from: n(5),
                to: n(6),
            },
            16 => TraceEventKind::PreemptWarning {
                first_pe: n(5),
                num_pes: n(6),
                deadline: t(4),
                proactive: v[3] & 1 == 1,
            },
            17 => TraceEventKind::Evacuation {
                chares: n(4),
                first_pe: n(5),
                num_pes: n(6),
            },
            18 => TraceEventKind::ElasticDecision {
                from: n(5),
                to: n(6),
                util: f,
            },
            _ => TraceEventKind::DegradedCapacity {
                have: n(5),
                floor: n(6),
            },
        }
    }

    proptest! {
        // 20 kinds x 7 index shapes x boundary values: the default 64 cases
        // would leave most combinations unvisited.
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The hand-rolled writers reproduce the `format!` model byte for
        /// byte: every event kind, every index shape, names that need
        /// escaping, an unregistered array, `t` = 0 and `u64::MAX`, PE and
        /// RTS tracks.
        #[test]
        fn writers_match_the_format_model(
            sel in 0usize..KINDS,
            v in proptest::collection::vec(any::<u64>(), 8),
            f in any::<f64>(),
            name in ".{0,12}",
        ) {
            const NUM_TRACKS: usize = 5;
            let mut names = NameTable::default();
            names.register(ArrayId(0), &name);
            names.register(ArrayId(1), "plain \"quoted\" back\\slash");
            let rec = TraceRecord {
                t: SimTime(edgy(v[0], v[1])),
                track: if v[2] & 1 == 0 { NUM_TRACKS - 1 } else { v[2] as usize % NUM_TRACKS },
                seq: v[3],
                kind: kind_from(sel, &v, f),
            };

            let mut want = String::new();
            model::chrome_event(&mut want, &rec, &names);
            let mut got = Vec::new();
            write_chrome_event(&mut got, &rec, &names);
            prop_assert_eq!(into_string(got), want, "chrome event for {:?}", rec);

            let want = model::csv_row(&rec, &names) + "\n";
            let mut got = Vec::new();
            write_csv_row(&mut got, &rec, &names);
            prop_assert_eq!(into_string(got), want, "csv row for {:?}", rec);
        }
    }

    #[test]
    fn every_kind_is_generated() {
        // `kind_from`'s catch-all arm must be the last variant, not a pile
        // of unreachable ones: all KINDS selectors give distinct names.
        let v = [1u64; 8];
        let mut seen = std::collections::BTreeSet::new();
        for sel in 0..KINDS {
            let kind = kind_from(sel, &v, 0.5);
            let name = match &kind {
                TraceEventKind::Entry { .. } => "entry",
                TraceEventKind::MsgSend { .. } => "send",
                TraceEventKind::MsgRecv { .. } => "recv",
                TraceEventKind::PeBusy => "busy",
                TraceEventKind::PeIdle => "idle",
                other => rts_name(other),
            };
            assert_ne!(name, "event", "selector {sel} hit the unnamed fallback");
            seen.insert(name);
        }
        assert_eq!(seen.len(), KINDS);
    }

    #[test]
    fn header_matches_the_format_model() {
        for (num_tracks, rts_track) in [(0, 0), (1, 0), (5, 4), (12, 11), (3, 7)] {
            let mut want = String::new();
            model::chrome_header(&mut want, num_tracks, rts_track);
            let mut got = CHROME_OPEN.as_bytes().to_vec();
            for track in 0..num_tracks {
                write_chrome_track(&mut got, track, rts_track);
            }
            assert_eq!(into_string(got), want);
        }
    }

    #[test]
    fn microsecond_formatting_is_exact() {
        let us = |ns: u64| {
            let mut out = Vec::new();
            push_us(&mut out, SimTime(ns));
            into_string(out)
        };
        assert_eq!(us(1_234_567), "1234.567");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(0), "0.000");
        assert_eq!(us(u64::MAX), model::us(SimTime(u64::MAX)));
    }

    #[test]
    fn integers_print_like_display() {
        for v in [
            0u64,
            9,
            10,
            99,
            100,
            101,
            12_345,
            999_999,
            1_000_000,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(into_string(out), v.to_string());
        }
        for v in [0i64, -1, 7, -10, i64::MIN, i64::MAX, i32::MIN as i64] {
            let mut out = Vec::new();
            push_i64(&mut out, v);
            assert_eq!(into_string(out), v.to_string());
        }
    }
}
