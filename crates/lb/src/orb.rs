//! OrbLB: orthogonal recursive bisection over index-derived coordinates.

use charm_core::{Ix, LbStats, Strategy};

/// Geometric balancer: objects are embedded in 3-D space by their array
/// index, then the space is recursively bisected along its longest axis
/// into load-equal halves until one PE's worth remains. Barnes-Hut uses
/// exactly this ("a load balancing strategy which performs Orthogonal
/// Recursive Bisection", §IV-C) because it preserves spatial locality.
#[derive(Debug, Default, Clone, Copy)]
pub struct OrbLb;

/// Embed an index into 3-D space for bisection.
fn position(ix: &Ix) -> [f64; 3] {
    match ix {
        Ix::I1(a) => [*a as f64, 0.0, 0.0],
        Ix::I2(v) => [v[0] as f64, v[1] as f64, 0.0],
        Ix::I3(v) => [v[0] as f64, v[1] as f64, v[2] as f64],
        Ix::I4(v) => [v[0] as f64, v[1] as f64, v[2] as f64],
        // A compute (i,j,k)-(l,m,n) sits midway between its two cells.
        Ix::I6(v) => [
            (v[0] + v[3]) as f64 / 2.0,
            (v[1] + v[4]) as f64 / 2.0,
            (v[2] + v[5]) as f64 / 2.0,
        ],
        // Oct-tree path → the center of the region it denotes.
        Ix::Bits { bits, len } => {
            let mut p = [0.5f64; 3];
            let mut scale = 0.25;
            let mut b = *bits;
            let mut remaining = *len;
            while remaining >= 3 {
                let oct = b & 0b111;
                for (d, axis) in p.iter_mut().enumerate() {
                    if oct & (1 << d) != 0 {
                        *axis += scale;
                    } else {
                        *axis -= scale;
                    }
                }
                b >>= 3;
                remaining -= 3;
                scale *= 0.5;
            }
            p
        }
        Ix::Named(h) => [
            (h & 0xFFFF) as f64,
            ((h >> 16) & 0xFFFF) as f64,
            ((h >> 32) & 0xFFFF) as f64,
        ],
    }
}

/// Recursively bisect `objs` (indices into stats) over PE range
/// `[pe_lo, pe_hi)`, writing assignments.
fn bisect(
    stats: &LbStats,
    pts: &[[f64; 3]],
    mut objs: Vec<usize>,
    pe_lo: usize,
    pe_hi: usize,
    out: &mut [Option<usize>],
) {
    debug_assert!(pe_hi > pe_lo);
    if pe_hi - pe_lo == 1 {
        for i in objs {
            if stats.objs[i].pe != pe_lo {
                out[i] = Some(pe_lo);
            }
        }
        return;
    }
    if objs.is_empty() {
        return;
    }
    // Longest axis of the bounding box.
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for &i in &objs {
        for d in 0..3 {
            lo[d] = lo[d].min(pts[i][d]);
            hi[d] = hi[d].max(pts[i][d]);
        }
    }
    let axis = (0..3)
        .max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b])))
        .expect("3 axes");

    objs.sort_by(|&a, &b| {
        pts[a][axis]
            .total_cmp(&pts[b][axis])
            .then_with(|| stats.objs[a].id.ix.cmp(&stats.objs[b].id.ix))
    });

    // Split PEs proportionally to aggregate speed, then split load to match.
    let mid_pe = pe_lo + (pe_hi - pe_lo) / 2;
    let speed_left: f64 = (pe_lo..mid_pe).map(|p| stats.pe_speed[p]).sum();
    let speed_right: f64 = (mid_pe..pe_hi).map(|p| stats.pe_speed[p]).sum();
    let total_load: f64 = objs.iter().map(|&i| stats.objs[i].load).sum();
    let left_target = total_load * speed_left / (speed_left + speed_right).max(1e-12);

    let mut acc = 0.0;
    let mut split = objs.len();
    for (k, &i) in objs.iter().enumerate() {
        if acc >= left_target {
            split = k;
            break;
        }
        acc += stats.objs[i].load;
    }
    let right = objs.split_off(split);
    bisect(stats, pts, objs, pe_lo, mid_pe, out);
    bisect(stats, pts, right, mid_pe, pe_hi, out);
}

impl Strategy for OrbLb {
    fn name(&self) -> &'static str {
        "OrbLB"
    }

    fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>> {
        let n = stats.objs.len();
        let mut out = vec![None; n];
        if stats.num_pes == 0 || n == 0 {
            return out;
        }
        let pts: Vec<[f64; 3]> = stats.objs.iter().map(|o| position(&o.id.ix)).collect();
        bisect(
            stats,
            &pts,
            (0..n).collect(),
            0,
            stats.num_pes,
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::post_imbalance;
    use charm_core::lbframework::{synthetic_stats, LbStats, ObjStat};
    use charm_core::{ArrayId, ObjId};

    fn spatial_stats_3d(num_pes: usize, side: i32) -> LbStats {
        let mut objs = Vec::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    // Clustered load: heavier near the origin corner, like a
                    // clustered particle distribution.
                    let d = (x + y + z) as f64;
                    objs.push(ObjStat {
                        id: ObjId {
                            array: ArrayId(0),
                            ix: Ix::i3(x, y, z),
                        },
                        pe: ((x * side * side + y * side + z) as usize) % num_pes,
                        load: 1.0 / (1.0 + d),
                        bytes_sent: 0,
                    });
                }
            }
        }
        LbStats {
            num_pes,
            pe_speed: vec![1.0; num_pes],
            objs,
            comm: Vec::new(),
        }
    }

    #[test]
    fn orb_balances_clustered_particles() {
        let stats = spatial_stats_3d(8, 8);
        let before = stats.imbalance();
        let a = OrbLb.assign(&stats);
        crate::validate_assignment(&stats, &a);
        let after = post_imbalance(&stats, &a);
        assert!(after < before, "{before} -> {after}");
        assert!(after < 1.4, "ORB should be reasonably balanced: {after}");
    }

    #[test]
    fn orb_keeps_neighbors_together() {
        // Two adjacent cells should land on the same or adjacent partition
        // much more often than random assignment would.
        let stats = spatial_stats_3d(8, 8);
        let a = OrbLb.assign(&stats);
        let placed: std::collections::HashMap<Ix, usize> = stats
            .objs
            .iter()
            .zip(&a)
            .map(|(o, x)| (o.id.ix, x.unwrap_or(o.pe)))
            .collect();
        let mut same = 0u32;
        let mut total = 0u32;
        for x in 0..7 {
            for y in 0..8 {
                for z in 0..8 {
                    let p = placed[&Ix::i3(x, y, z)];
                    let q = placed[&Ix::i3(x + 1, y, z)];
                    total += 1;
                    if p == q {
                        same += 1;
                    }
                }
            }
        }
        // Random placement over 8 PEs would co-locate ~1/8 of pairs.
        assert!(
            same * 3 > total,
            "spatial locality preserved: {same}/{total}"
        );
    }

    #[test]
    fn orb_covers_all_pes() {
        let stats = spatial_stats_3d(16, 8);
        let a = OrbLb.assign(&stats);
        let mut used = [false; 16];
        for (o, x) in stats.objs.iter().zip(&a) {
            used[x.unwrap_or(o.pe)] = true;
        }
        assert!(used.iter().all(|&u| u), "every PE gets a region");
    }

    #[test]
    fn orb_handles_1d_indices() {
        let stats = synthetic_stats(4, &[1.0; 64]);
        let a = OrbLb.assign(&stats);
        crate::validate_assignment(&stats, &a);
        let after = post_imbalance(&stats, &a);
        assert!(after < 1.1);
    }

    #[test]
    fn bits_positions_are_distinct_per_octant() {
        let root = Ix::ROOT;
        let mut seen = std::collections::HashSet::new();
        for c in 0..8u64 {
            let p = position(&root.tree_child(c, 3));
            seen.insert(format!("{p:?}"));
        }
        assert_eq!(seen.len(), 8);
    }
}
