//! Streaming file sinks for the tracer: incremental Chrome-trace JSON and
//! CSV writers implementing [`TraceSink`].
//!
//! Both funnel every record through the same formatters as the in-memory
//! exporters (`crate::tracefmt`), so a streamed file is byte-identical to
//! [`Runtime::trace_chrome_json_arrival`](crate::Runtime::trace_chrome_json_arrival)
//! / [`trace_csv_arrival`](crate::Runtime::trace_csv_arrival) whenever the
//! rings retained every record (property-tested in `tests/trace_stream.rs`)
//! — but unlike the rings they hold O(1) memory no matter how many events
//! the run produces, which is what lets full event logs survive 128 K–1 M
//! simulated PEs (`scale_bench`). Records are formatted straight into one
//! fixed buffer per sink; the per-record path neither allocates nor makes
//! a system call.
//!
//! Write errors never abort the simulation: every record that did not
//! reach the file is counted in [`SinkStats::dropped`] and surfaced in the
//! report footer.

use crate::trace::{NameTable, SinkStats, TraceRecord, TraceSink};
use crate::tracefmt::{
    write_chrome_event, write_chrome_track, write_csv_row, CHROME_OPEN, CHROME_TAIL, CSV_HEADER,
};
use std::fs::File;
use std::io::Write as _;
use std::path::Path;

/// Size of a file sink's one buffer.
const BUF_BYTES: usize = 64 * 1024;
/// The buffer is written out once it is this full, leaving room for the
/// next record (only a record longer than the gap — an array name of
/// several KiB — would make it grow).
const DRAIN_AT: usize = BUF_BYTES - 4 * 1024;

/// Shared plumbing: the file, its buffer, delivery counters, error latch.
struct FileSink {
    name: &'static str,
    /// Appended by [`FileSink::finish`] so the file is well-formed.
    tail: &'static str,
    out: File,
    buf: Vec<u8>,
    /// Records in `buf`, not yet handed to the file.
    buffered: u64,
    records: u64,
    dropped: u64,
    bytes_written: u64,
    finished: bool,
}

impl FileSink {
    fn create(path: &Path, name: &'static str, tail: &'static str) -> std::io::Result<Self> {
        Ok(FileSink {
            name,
            tail,
            out: File::create(path)?,
            buf: Vec::with_capacity(BUF_BYTES),
            buffered: 0,
            records: 0,
            dropped: 0,
            bytes_written: 0,
            finished: false,
        })
    }

    /// Hand the buffer to the file. A failed write loses everything in it:
    /// each buffered record (or the lone header/tail) counts as dropped.
    fn drain(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        match self.out.write_all(&self.buf) {
            Ok(()) => self.bytes_written += self.buf.len() as u64,
            Err(_) => self.dropped += self.buffered.max(1),
        }
        self.buf.clear();
        self.buffered = 0;
    }

    /// Format a piece of the file into the buffer.
    fn chunk(&mut self, format: impl FnOnce(&mut Vec<u8>)) {
        format(&mut self.buf);
        if self.buf.len() >= DRAIN_AT {
            self.drain();
        }
    }

    /// Format one record into the buffer.
    fn record(&mut self, format: impl FnOnce(&mut Vec<u8>)) {
        self.records += 1;
        if self.finished {
            self.dropped += 1;
            return;
        }
        self.buffered += 1;
        self.chunk(format);
    }

    /// Append the tail and write out what is buffered. Idempotent; also
    /// runs on drop, so a sink that was never finished still leaves a
    /// complete file.
    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.buf.extend_from_slice(self.tail.as_bytes());
        self.drain();
    }

    fn stats(&self) -> SinkStats {
        SinkStats {
            name: self.name.to_string(),
            records: self.records,
            dropped: self.dropped,
            bytes_written: self.bytes_written,
        }
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Streams the event log to a Chrome trace-event JSON file as records
/// arrive (Perfetto / `chrome://tracing` loadable). Install via
/// [`RuntimeBuilder::trace_sink`](crate::RuntimeBuilder::trace_sink);
/// [`Runtime::finish_trace`](crate::Runtime::finish_trace) writes the JSON
/// tail, flushes, and returns the delivery stats. Dropping the sink (or the
/// runtime that owns it) unfinished does the same, minus the stats.
pub struct ChromeStreamSink {
    file: FileSink,
}

impl ChromeStreamSink {
    /// Create/truncate the output file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(ChromeStreamSink {
            file: FileSink::create(path.as_ref(), "chrome_stream", CHROME_TAIL)?,
        })
    }
}

impl TraceSink for ChromeStreamSink {
    fn name(&self) -> &'static str {
        self.file.name
    }

    fn begin(&mut self, num_tracks: usize, _names: &NameTable) {
        let rts_track = num_tracks.saturating_sub(1);
        self.file
            .chunk(|buf| buf.extend_from_slice(CHROME_OPEN.as_bytes()));
        for track in 0..num_tracks {
            self.file
                .chunk(|buf| write_chrome_track(buf, track, rts_track));
        }
    }

    fn record(&mut self, rec: &TraceRecord, names: &NameTable) {
        let first = self.file.records == 0;
        self.file.record(|buf| {
            if !first {
                buf.extend_from_slice(b",\n");
            }
            write_chrome_event(buf, rec, names);
        });
    }

    fn finish(&mut self, _names: &NameTable) {
        self.file.finish();
    }

    fn stats(&self) -> SinkStats {
        self.file.stats()
    }
}

/// Streams the event log to a CSV file
/// (`t_ns,track,kind,name,dur_ns,bytes,a,b`) as records arrive. Finished
/// by [`Runtime::finish_trace`](crate::Runtime::finish_trace) or on drop.
pub struct CsvStreamSink {
    file: FileSink,
}

impl CsvStreamSink {
    /// Create/truncate the output file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(CsvStreamSink {
            file: FileSink::create(path.as_ref(), "csv_stream", "")?,
        })
    }
}

impl TraceSink for CsvStreamSink {
    fn name(&self) -> &'static str {
        self.file.name
    }

    fn begin(&mut self, _num_tracks: usize, _names: &NameTable) {
        self.file
            .chunk(|buf| buf.extend_from_slice(CSV_HEADER.as_bytes()));
    }

    fn record(&mut self, rec: &TraceRecord, names: &NameTable) {
        self.file.record(|buf| write_csv_row(buf, rec, names));
    }

    fn finish(&mut self, _names: &NameTable) {
        self.file.finish();
    }

    fn stats(&self) -> SinkStats {
        self.file.stats()
    }
}

/// In-memory sink that counts records and discards them — the
/// null-overhead arm for sink-cost measurements and tests.
#[derive(Default)]
pub struct CountingSink {
    records: u64,
}

impl CountingSink {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for CountingSink {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn record(&mut self, _rec: &TraceRecord, _names: &NameTable) {
        self.records += 1;
    }

    fn stats(&self) -> SinkStats {
        SinkStats {
            name: "counting".to_string(),
            records: self.records,
            dropped: 0,
            bytes_written: 0,
        }
    }
}
