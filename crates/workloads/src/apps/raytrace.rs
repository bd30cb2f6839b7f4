//! Raytrace analogue — SPLASH-2 "hierarchical ray tracing, car scene".
//!
//! Structure reproduced: a large **read-only scene** (BVH + geometry,
//! ~8/9 of the working set) consulted by every ray with a Zipf bias
//! toward the upper hierarchy levels, a partitioned image plane written
//! once per ray, and a task-stealing work queue guarded by locks.
//!
//! Raytrace has the widest replication demand of the suite — the whole
//! scene wants to live in every node — which makes it the most dramatic
//! Figure 4 conflict-miss application at 87.5 % MP, while its Figure 2
//! clustering gain is near the bottom (read-only data is already
//! replicated; there is little coherence traffic for clustering to
//! internalize).

use crate::region::{Layout, Region};
use crate::stream::{OpBuf, PhaseGen, Scale};
use crate::workload::Workload;
use coma_types::ZipfSampler;

const SALT: u64 = 0x4A71;
const BASE_ITERS: u32 = 16;
const N_LOCKS: u32 = 8;
/// Scene lines read per image line (rays × traversal depth).
const RAYS_PER_TILE_LINE: u64 = 12;

struct Raytrace {
    me: usize,
    iters: u32,
    scene: Region,
    own_tile: Region,
    zipf: ZipfSampler,
}

impl PhaseGen for Raytrace {
    fn n_iters(&self) -> u32 {
        self.iters
    }

    fn gen_iter(&mut self, _iter: u32, buf: &mut OpBuf) {
        for px in 0..self.own_tile.lines() {
            // Occasionally grab a task from the stealing queue.
            if px % 32 == 0 {
                let lock = if buf.rng().chance(0.75) {
                    self.me as u32 % N_LOCKS
                } else {
                    buf.rng().below(N_LOCKS as u64) as u32
                };
                buf.lock(lock);
                buf.compute(20);
                buf.unlock(lock);
            }
            for _ in 0..RAYS_PER_TILE_LINE {
                let s = self.zipf.sample(buf.rng()) as u64;
                let a = self.scene.line(s);
                // A BVH node / primitive is tested against many rays of
                // the tile while it sits in the FLC/SLC.
                buf.read(a);
                buf.read(a);
                buf.read(a);
            }
            let t = self.own_tile.line(px);
            buf.read(t);
            buf.write(t);
        }
        buf.barrier();
    }
}

/// Build the Raytrace workload.
pub fn build(nprocs: usize, seed: u64, scale: Scale, ws_bytes: u64) -> Workload {
    let mut layout = Layout::new();
    let image_bytes = ws_bytes / 9;
    let scene = layout.alloc_bytes(ws_bytes - image_bytes);
    let image = layout.alloc_bytes(image_bytes);
    let tiles = image.partition(nprocs);
    // Strong head skew: upper BVH levels are traversed by every ray.
    let zipf = ZipfSampler::new(scene.lines() as usize, 1.2);
    let streams = super::build_streams(nprocs, seed, SALT, (60, 140), |me| Raytrace {
        me,
        iters: scale.iters(BASE_ITERS),
        scene,
        own_tile: tiles[me],
        zipf: zipf.clone(),
    });
    Workload {
        name: "Raytrace",
        ws_bytes: layout.total_bytes(),
        n_locks: N_LOCKS,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, OpStream};

    #[test]
    fn scene_is_never_written() {
        let ws = 512 * 1024u64;
        let mut wl = build(4, 11, Scale::SMOKE, ws);
        let scene_lines = (ws - ws / 9) / 64;
        for s in &mut wl.streams {
            while let Some(op) = s.next_op() {
                if let Op::Write(a) = op {
                    assert!(a.line().0 >= scene_lines, "write into read-only scene");
                }
            }
        }
    }

    #[test]
    fn reads_dominate() {
        let mut wl = build(4, 11, Scale::SMOKE, 512 * 1024);
        let (mut r, mut w) = (0u64, 0u64);
        while let Some(op) = wl.streams[0].next_op() {
            match op {
                Op::Read(_) => r += 1,
                Op::Write(_) => w += 1,
                _ => {}
            }
        }
        assert!(r > w * 5, "raytrace must be read-dominated: r={r} w={w}");
    }

    #[test]
    fn image_writes_stay_in_own_tile() {
        let ws = 512 * 1024u64;
        // Reconstruct the layout exactly as `build` does.
        let mut layout = Layout::new();
        let _scene = layout.alloc_bytes(ws - ws / 9);
        let image = layout.alloc_bytes(ws / 9);
        let tile2 = image.partition(4)[2];
        let mut wl = build(4, 11, Scale::SMOKE, ws);
        while let Some(op) = wl.streams[2].next_op() {
            if let Op::Write(a) = op {
                assert!(tile2.contains(a), "write outside own tile: {a}");
            }
        }
    }
}
