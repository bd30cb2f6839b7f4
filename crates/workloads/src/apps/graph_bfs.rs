//! Graph BFS — irregular graph analysis (level-synchronized BFS plus
//! pointer chasing), after Chen & Bader's Cell BE graph study.
//!
//! The adversarial case for attraction memories: vertex and edge accesses
//! are spread nearly uniformly over the whole working set with little
//! temporal reuse, so replication buys almost nothing while replacement
//! traffic still has to be paid. Structure:
//!
//! * The graph lives in two regions: a **vertex array** (8 vertices per
//!   line: level / parent / visited word) and a **CSR edge array**
//!   (8 edge targets per line), laid out consecutively.
//! * Each outer iteration is one BFS from a fresh root. The frontier
//!   follows the classic pulse profile (tiny → exponential growth →
//!   peak around the graph diameter's midpoint → tail); every level ends
//!   in a barrier, exactly like a level-synchronized implementation.
//! * For each owned frontier vertex the processor reads its vertex line,
//!   streams its CSR adjacency lines, then probes every neighbour's
//!   vertex line machine-wide; unvisited neighbours (a per-level
//!   claim probability that decays as the visited set grows) are claimed
//!   with a write — scattered invalidations with no locality.
//! * Edge endpoints are drawn with an **R-MAT-style skew** (each target
//!   id bit is 1 with probability 1/4, concentrating edges on low-id hub
//!   vertices whose degrees also grow as 1/√id — the heavy-tailed degree
//!   profile of R-MAT graphs).
//! * After the BFS, a **pointer-chasing** phase walks `hash(v)` chains
//!   through the vertex array — dependent random reads, the pattern with
//!   the least locality a memory system can face — then a final barrier.

use crate::region::{Layout, Region};
use crate::stream::{OpBuf, PhaseGen, Scale};
use crate::workload::Workload;
use coma_types::{Rng64, LINE_BYTES};

const SALT: u64 = 0x6BF5_11C3;
/// BFS roots at `Scale::PAPER` (one root per outer iteration).
const BASE_ROOTS: u32 = 12;
/// Vertex records per cache line.
const VERTS_PER_LINE: u64 = 8;
/// Edge targets per cache line.
const EDGES_PER_LINE: u64 = 8;
/// Fraction of the graph in the frontier at each BFS level (the pulse).
const FRONTIER_WEIGHT: [f64; 8] = [0.002, 0.02, 0.10, 0.22, 0.26, 0.14, 0.05, 0.008];
/// Probability a probed neighbour is still unvisited (claimed with a
/// write) at each level; decays as the visited set grows.
const CLAIM_FRAC: [f64; 8] = [0.9, 0.8, 0.6, 0.4, 0.25, 0.12, 0.05, 0.02];
/// Dependent reads per processor in each pointer-chasing phase.
const CHASE_REFS: u64 = 1500;

/// Mean out-degree (CSR row length).
const AVG_DEGREE: u64 = 8;

/// Vertices in a graph sized to `ws_bytes`: the vertex array plus the
/// edge array fill the working set.
pub(crate) fn vertices_for(ws_bytes: u64) -> u64 {
    // lines = n/VERTS_PER_LINE + n·AVG_DEGREE/EDGES_PER_LINE = 9n/8, so
    // n = lines · 8/9.
    (ws_bytes / LINE_BYTES) * VERTS_PER_LINE * EDGES_PER_LINE
        / (EDGES_PER_LINE + AVG_DEGREE * VERTS_PER_LINE)
}

/// SplitMix64 finalizer as a pure hash (the pointer-chase successor) —
/// deterministic in its argument, no RNG state consumed.
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct GraphBfs {
    me: usize,
    nprocs: usize,
    roots: u32,
    n_vertices: u64,
    verts: Region,
    adj: Region,
}

impl GraphBfs {
    /// Deterministic degree of vertex `v`: low-id hubs get degrees
    /// growing as 1/√id, normalized so the mean over the graph stays
    /// ≈ `AVG_DEGREE`.
    fn degree_of(&self, v: u64) -> u64 {
        let scale = (self.n_vertices as f64).sqrt() / (2.0 * ((v + 1) as f64).sqrt());
        let d = (AVG_DEGREE as f64 * scale).round() as u64;
        d.clamp(1, 32 * AVG_DEGREE)
    }

    /// One R-MAT-style edge endpoint: each id bit is set with probability
    /// 1/4, biasing targets toward low-id hubs. Out-of-range draws for
    /// non-power-of-two graphs are rejected and redrawn.
    fn target(&self, rng: &mut Rng64) -> u64 {
        let bits = 64 - (self.n_vertices - 1).max(1).leading_zeros();
        loop {
            let mut v = 0u64;
            for _ in 0..bits {
                v = (v << 1) | u64::from(rng.chance(0.25));
            }
            if v < self.n_vertices {
                return v;
            }
        }
    }
}

impl PhaseGen for GraphBfs {
    fn n_iters(&self) -> u32 {
        self.roots
    }

    fn gen_iter(&mut self, _root: u32, buf: &mut OpBuf) {
        let own = self.n_vertices / self.nprocs as u64;
        let own_base = own * self.me as u64;

        // Level-synchronized BFS: expand owned frontier vertices, barrier.
        for (level, &weight) in FRONTIER_WEIGHT.iter().enumerate() {
            let visits = ((own as f64 * weight) as u64).max(1);
            for _ in 0..visits {
                let v = own_base + buf.rng().below(own.max(1));
                buf.read(self.verts.line(v / VERTS_PER_LINE));
                let deg = self.degree_of(v);
                // Stream the CSR row (consecutive edge lines).
                let row = v * AVG_DEGREE / EDGES_PER_LINE;
                for j in 0..deg.div_ceil(EDGES_PER_LINE) {
                    buf.read(self.adj.line(row + j));
                }
                // Probe every neighbour; claim the unvisited ones.
                for _ in 0..deg {
                    let u = self.target(buf.rng());
                    let line = self.verts.line(u / VERTS_PER_LINE);
                    buf.read(line);
                    if buf.rng().chance(CLAIM_FRAC[level]) {
                        buf.write(line);
                    }
                }
            }
            buf.barrier();
        }

        // Pointer chasing: dependent hash-chain walk over the vertices.
        let mut cur = buf.rng().below(self.n_vertices);
        for _ in 0..CHASE_REFS {
            buf.read(self.verts.line(cur / VERTS_PER_LINE));
            cur = mix(cur) % self.n_vertices;
        }
        buf.barrier();
    }
}

/// Build a graph sized to the catalog working set `ws_bytes`.
pub fn build(nprocs: usize, seed: u64, scale: Scale, ws_bytes: u64) -> Workload {
    let n_vertices = vertices_for(ws_bytes);
    let mut layout = Layout::new();
    let verts = layout.alloc_lines(n_vertices.div_ceil(VERTS_PER_LINE));
    let adj = layout.alloc_lines((n_vertices * AVG_DEGREE).div_ceil(EDGES_PER_LINE).max(1));
    let streams = super::build_streams(nprocs, seed, SALT, (1, 3), |me| GraphBfs {
        me,
        nprocs,
        roots: scale.iters(BASE_ROOTS),
        n_vertices,
        verts,
        adj,
    });
    Workload {
        name: "Graph BFS",
        ws_bytes: layout.total_bytes(),
        n_locks: 0,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, OpStream};

    #[test]
    fn rmat_targets_skew_toward_hubs() {
        let g = GraphBfs {
            me: 0,
            nprocs: 1,
            roots: 1,
            n_vertices: 4096,
            verts: Region::new(0, 512),
            adj: Region::new(512 * 64, 4096),
        };
        let mut rng = Rng64::new(9);
        let mut low = 0u64;
        const N: u64 = 20_000;
        for _ in 0..N {
            if g.target(&mut rng) < 256 {
                low += 1;
            }
        }
        // 256/4096 = 6.25% of ids; with bit-probability 1/4 the lowest
        // 256 ids carry (3/4)^4 ≈ 32% of the endpoints.
        assert!(low * 4 > N, "hub mass too small: {low}/{N}");
    }

    #[test]
    fn spread_covers_most_of_the_working_set() {
        let mut wl = build(4, 5, Scale::SMOKE, 512 * 1024);
        let mut lines = std::collections::HashSet::new();
        let mut n = 0u64;
        for s in &mut wl.streams {
            while let Some(op) = s.next_op() {
                if let Op::Read(a) | Op::Write(a) = op {
                    lines.insert(a.line().0);
                    n += 1;
                }
                if n > 400_000 {
                    break;
                }
            }
        }
        let ws_lines = wl.ws_bytes / 64;
        assert!(
            lines.len() as u64 * 2 > ws_lines,
            "graph traffic touched only {}/{} lines",
            lines.len(),
            ws_lines
        );
    }

    #[test]
    fn barrier_count_is_levels_plus_chase_per_root() {
        let mut wl = build(2, 5, Scale::SMOKE, 256 * 1024);
        let mut barriers = 0u32;
        while let Some(op) = wl.streams[0].next_op() {
            if matches!(op, Op::Barrier(_)) {
                barriers += 1;
            }
        }
        let per_root = FRONTIER_WEIGHT.len() as u32 + 1;
        assert_eq!(barriers % per_root, 0);
        assert!(barriers >= per_root);
    }

    #[test]
    fn mean_rmat_degree_close_to_avg() {
        let g = GraphBfs {
            me: 0,
            nprocs: 1,
            roots: 1,
            n_vertices: 32768,
            verts: Region::new(0, 4096),
            adj: Region::new(4096 * 64, 32768),
        };
        let total: u64 = (0..g.n_vertices).map(|v| g.degree_of(v)).sum();
        let mean = total as f64 / g.n_vertices as f64;
        assert!(
            (4.0..16.0).contains(&mean),
            "rmat mean degree drifted to {mean}"
        );
        // Hubs really are hubs.
        assert!(g.degree_of(0) > 8 * g.degree_of(g.n_vertices - 1));
    }
}
