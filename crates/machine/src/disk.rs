//! Parallel-filesystem cost model for disk checkpoints (§III-B).

use crate::SimTime;

/// Cost model for checkpoint I/O to the parallel filesystem.
///
/// The filesystem has an aggregate bandwidth shared by all writers plus a
/// fixed per-operation latency; per-PE bandwidth is additionally capped (a
/// single writer cannot saturate the whole filesystem).
#[derive(Debug, Clone)]
pub struct DiskModel {
    /// Aggregate filesystem bandwidth, bytes/second.
    pub(crate) aggregate_bw: f64,
    /// Cap on one PE's streaming bandwidth, bytes/second.
    pub(crate) per_pe_bw: f64,
    /// Fixed open/metadata latency per file operation.
    pub(crate) op_latency: SimTime,
}

impl Default for DiskModel {
    fn default() -> Self {
        // A modest Lustre-like filesystem: 20 GB/s aggregate, 500 MB/s/PE.
        DiskModel {
            aggregate_bw: 20e9,
            per_pe_bw: 500e6,
            op_latency: SimTime::from_millis(2),
        }
    }
}

impl DiskModel {
    /// Time for `writers` PEs to each write `bytes_per_pe` concurrently.
    ///
    /// Effective per-PE bandwidth is min(per-PE cap, aggregate / writers).
    pub fn write_time(&self, writers: usize, bytes_per_pe: usize) -> SimTime {
        if writers == 0 || bytes_per_pe == 0 {
            return self.op_latency;
        }
        let share = self.aggregate_bw / writers as f64;
        let bw = self.per_pe_bw.min(share);
        self.op_latency + SimTime::from_secs_f64(bytes_per_pe as f64 / bw)
    }

    /// Time for `readers` PEs to each read `bytes_per_pe` concurrently
    /// (same model as writes).
    pub fn read_time(&self, readers: usize, bytes_per_pe: usize) -> SimTime {
        self.write_time(readers, bytes_per_pe)
    }
}

/// A storage fault to inject into a serialized checkpoint image.
///
/// Models the ways a checkpoint file goes bad on real systems: a writer
/// dying mid-stream (torn write), silent media corruption (bit flip), and
/// lost trailing data (truncation). `restore_from_disk` must reject every
/// one of these with a structured error rather than panicking or silently
/// restoring garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Drop everything past `keep_bytes` (file cut short).
    Truncate {
        /// Prefix length preserved.
        keep_bytes: usize,
    },
    /// Flip one bit: bit `bit` (0–7) of the byte at `offset`.
    BitFlip {
        /// Byte offset of the corrupted byte.
        offset: usize,
        /// Which bit of that byte flips.
        bit: u8,
    },
    /// A torn write: the tail from `from_byte` on was never persisted and
    /// reads back as zeroes (the file keeps its full length).
    TornWrite {
        /// First byte of the unpersisted tail.
        from_byte: usize,
    },
}

impl DiskFault {
    /// Apply the fault to a checkpoint image, returning the damaged bytes.
    /// Out-of-range offsets clamp to the image, so a fault built for a
    /// larger image still damages a smaller one.
    pub fn apply(&self, image: &[u8]) -> Vec<u8> {
        let mut out = image.to_vec();
        if out.is_empty() {
            return out;
        }
        match *self {
            DiskFault::Truncate { keep_bytes } => {
                out.truncate(keep_bytes.min(out.len().saturating_sub(1)));
            }
            DiskFault::BitFlip { offset, bit } => {
                let i = offset.min(out.len() - 1);
                out[i] ^= 1 << (bit % 8);
            }
            DiskFault::TornWrite { from_byte } => {
                let i = from_byte.min(out.len().saturating_sub(1));
                for b in &mut out[i..] {
                    *b = 0;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_writers_share_bandwidth() {
        let d = DiskModel::default();
        let few = d.write_time(4, 1_000_000_000);
        let many = d.write_time(4000, 1_000_000_000);
        assert!(many > few);
    }

    #[test]
    fn per_pe_cap_binds_at_small_scale() {
        let d = DiskModel::default();
        // 1 writer: limited by per-PE bw, not aggregate.
        let t = d.write_time(1, 500_000_000);
        let expect = d.op_latency + SimTime::from_secs_f64(500e6 / 500e6);
        assert_eq!(t, expect);
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let d = DiskModel::default();
        assert_eq!(d.write_time(10, 0), d.op_latency);
        assert_eq!(d.write_time(0, 10), d.op_latency);
    }

    #[test]
    fn read_equals_write_model() {
        let d = DiskModel::default();
        assert_eq!(d.read_time(64, 123_456), d.write_time(64, 123_456));
    }

    #[test]
    fn disk_faults_damage_images() {
        let image: Vec<u8> = (0..64u8).collect();
        let t = DiskFault::Truncate { keep_bytes: 10 }.apply(&image);
        assert_eq!(t, &image[..10]);
        let b = DiskFault::BitFlip { offset: 5, bit: 3 }.apply(&image);
        assert_eq!(b.len(), image.len());
        assert_eq!(b[5], image[5] ^ 0b1000);
        assert_eq!(&b[..5], &image[..5]);
        let w = DiskFault::TornWrite { from_byte: 60 }.apply(&image);
        assert_eq!(w.len(), image.len());
        assert_eq!(&w[..60], &image[..60]);
        assert!(w[60..].iter().all(|&x| x == 0));
    }

    #[test]
    fn disk_faults_clamp_to_image() {
        let image = vec![0xFFu8; 8];
        // Offsets past the end damage the last byte / never grow the image.
        assert_eq!(DiskFault::Truncate { keep_bytes: 99 }.apply(&image).len(), 7);
        let b = DiskFault::BitFlip { offset: 99, bit: 0 }.apply(&image);
        assert_eq!(b[7], 0xFE);
        let w = DiskFault::TornWrite { from_byte: 99 }.apply(&image);
        assert_eq!(w[7], 0);
        assert!(DiskFault::BitFlip { offset: 0, bit: 0 }.apply(&[]).is_empty());
    }
}
