//! Compiled-stream fidelity: an [`OpArena`] must replay *exactly* the
//! sequence the interpreted stream produces — same memory references and
//! sync ops in the same order, with the same cumulative compute time
//! between them — for every application in the catalog.

use coma_types::time::instr_time;
use coma_types::Nanos;
use coma_workloads::{AppId, FlatKind, Op, OpArena, OpStream, Scale};

/// One semantic event: an operation with the total compute gap (ns)
/// elapsed since the previous operation. This normalization makes the
/// comparison independent of how compilation splits long gaps across
/// records.
#[derive(PartialEq, Eq, Debug, Clone, Copy)]
struct Event {
    kind: FlatKind,
    payload: u64,
    gap_ns: Nanos,
}

/// Fold an interpreted stream into semantic events plus the trailing gap.
fn fold_stream(s: &mut dyn OpStream) -> (Vec<Event>, Nanos) {
    let mut events = Vec::new();
    let mut gap: Nanos = 0;
    while let Some(op) = s.next_op() {
        let (kind, payload) = match op {
            Op::Compute(n) => {
                gap += instr_time(n as u64);
                continue;
            }
            Op::Read(a) => (FlatKind::Read, a.0),
            Op::Write(a) => (FlatKind::Write, a.0),
            Op::Lock(id) => (FlatKind::Lock, id as u64),
            Op::Unlock(id) => (FlatKind::Unlock, id as u64),
            Op::Barrier(id) => (FlatKind::Barrier, id as u64),
        };
        events.push(Event {
            kind,
            payload,
            gap_ns: std::mem::take(&mut gap),
        });
    }
    (events, gap)
}

/// Fold one compiled span into the same semantic form.
fn fold_span(arena: &OpArena, proc: usize) -> (Vec<Event>, Nanos) {
    let (start, end) = arena.span(proc);
    let mut events = Vec::new();
    let mut gap: Nanos = 0;
    for i in start..end {
        let r = arena.get(i);
        if r.kind() == FlatKind::Gap {
            assert_eq!(r.gap_ns(), 0, "Gap record carries an inline gap");
            assert!(r.payload() > 0, "zero-length standalone Gap record");
            gap += r.payload();
        } else {
            events.push(Event {
                kind: r.kind(),
                payload: r.payload(),
                gap_ns: gap + r.gap_ns(),
            });
            gap = 0;
        }
    }
    (events, gap)
}

#[test]
fn compiled_arena_replays_every_catalog_app() {
    for app in AppId::ALL.into_iter().chain(AppId::TRAFFIC) {
        // Two identical builds: one interpreted reference, one compiled.
        let reference = app.build(4, 11, Scale::SMOKE);
        let compiled = app.build(4, 11, Scale::SMOKE);
        let arena = OpArena::compile(compiled.streams);
        assert_eq!(arena.n_streams(), 4, "{app}");
        for (p, mut stream) in reference.streams.into_iter().enumerate() {
            let (want, want_tail) = fold_stream(&mut *stream);
            let (got, got_tail) = fold_span(&arena, p);
            assert_eq!(
                got.len(),
                want.len(),
                "{app} proc {p}: compiled op count diverges"
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{app} proc {p}: op {i} diverges");
            }
            assert_eq!(got_tail, want_tail, "{app} proc {p}: trailing gap");
        }
    }
}

#[test]
fn compiled_arena_is_deterministic() {
    let a1 = OpArena::compile(AppId::Radix.build(2, 5, Scale::SMOKE).streams);
    let a2 = OpArena::compile(AppId::Radix.build(2, 5, Scale::SMOKE).streams);
    assert_eq!(a1.records(), a2.records());
    assert!(a1.len() > 1000, "radix smoke compiled to only {}", a1.len());
}

#[test]
fn zero_gap_streams_compile_without_gap_records() {
    // Radix uses set_gap(0,0) phases; more directly: a synthetic stream
    // of back-to-back refs must produce gap-free records only.
    struct BackToBack(u32);
    impl OpStream for BackToBack {
        fn next_op(&mut self) -> Option<Op> {
            if self.0 == 0 {
                return None;
            }
            self.0 -= 1;
            Some(Op::Read(coma_types::Addr(64 * self.0 as u64)))
        }
    }
    let mut arena = OpArena::new();
    arena.push_stream(&mut BackToBack(100));
    assert_eq!(arena.len(), 100);
    let (s, e) = arena.span(0);
    for i in s..e {
        assert_eq!(arena.get(i).gap_ns(), 0);
        assert_eq!(arena.get(i).kind(), FlatKind::Read);
    }
}

/// A synthetic stream of `len` operations cycling through every op kind
/// with a gap pattern that includes gaps long enough to spill into
/// standalone Gap records.
struct Mixed {
    remaining: u64,
    i: u64,
}

impl Mixed {
    fn new(len: u64) -> Self {
        Mixed {
            remaining: len,
            i: 0,
        }
    }
}

impl OpStream for Mixed {
    fn next_op(&mut self) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let i = self.i;
        self.i += 1;
        Some(match i % 7 {
            0 => Op::Read(coma_types::Addr(64 * (i % 97))),
            1 => Op::Compute(3),
            // Large enough that the accumulated gap exceeds the inline
            // gap field and must spill into Gap records.
            2 => Op::Compute(40_000_000),
            3 => Op::Write(coma_types::Addr(64 * (i % 89))),
            4 => Op::Lock((i % 5) as u32),
            5 => Op::Unlock((i % 5) as u32),
            _ => Op::Barrier((i / 7) as u32),
        })
    }
}

/// Compiled replay must stay exact at stream lengths straddling every
/// 64-record chunk boundary: len ≡ 0, 1 and 63 (mod 64).
#[test]
fn chunk_boundary_lengths_replay_exactly() {
    for len in [0u64, 1, 63, 64, 65, 127, 128, 191, 192, 193, 255] {
        let (want, want_tail) = fold_stream(&mut Mixed::new(len));
        let mut arena = OpArena::new();
        arena.push_stream(&mut Mixed::new(len));
        let (got, got_tail) = fold_span(&arena, 0);
        assert_eq!(got, want, "len {len}: ops diverge");
        assert_eq!(got_tail, want_tail, "len {len}: trailing gap diverges");
    }
}

/// Multi-stream arenas keep exact spans at the same boundary lengths.
#[test]
fn chunk_boundary_spans_stay_separated() {
    let lens = [63u64, 64, 65];
    let mut arena = OpArena::new();
    for &len in &lens {
        arena.push_stream(&mut Mixed::new(len));
    }
    assert_eq!(arena.n_streams(), lens.len());
    for (p, &len) in lens.iter().enumerate() {
        let (want, want_tail) = fold_stream(&mut Mixed::new(len));
        let (got, got_tail) = fold_span(&arena, p);
        assert_eq!(got, want, "stream {p} (len {len}) diverges");
        assert_eq!(got_tail, want_tail, "stream {p} trailing gap");
    }
}

/// FNV-1a 64-bit over the little-endian bytes of `v`.
fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a compiled arena: every span, then every record's kind,
/// inline gap and payload, in order.
fn arena_digest(arena: &OpArena) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for p in 0..arena.n_streams() {
        let (start, end) = arena.span(p);
        h = fnv1a_u64(h, start as u64);
        h = fnv1a_u64(h, end as u64);
    }
    for r in arena.records() {
        h = fnv1a_u64(h, r.kind() as u64);
        h = fnv1a_u64(h, r.gap_ns());
        h = fnv1a_u64(h, r.payload());
    }
    h
}

/// Every catalog app's generated streams at smoke scale, seed 42, on 4 and
/// 16 processors, pinned by digest. A generator change that moves a single
/// draw — an address, a sync id or a compute gap — moves its digest.
#[test]
fn generated_streams_are_pinned() {
    const PINS: [(&str, usize, u64); 32] = [
        ("Barnes", 4, 0xd54c12f461a18808),
        ("Barnes", 16, 0x3ebfab227677eb0e),
        ("Cholesky", 4, 0x6abf883edd8d1d13),
        ("Cholesky", 16, 0x60d1dfb3fd953885),
        ("FFT", 4, 0x501a13ec2712e026),
        ("FFT", 16, 0x5aba0e8e201bcbeb),
        ("FMM", 4, 0xb618623768d27552),
        ("FMM", 16, 0x192f786f230cb70c),
        ("LU cont", 4, 0xa96d0aded5a8d32f),
        ("LU cont", 16, 0xa6888908476ff18b),
        ("LU non", 4, 0xa7b248454ae4ac8a),
        ("LU non", 16, 0xecf9ba09e511a9de),
        ("Ocean cont", 4, 0xf0e5ab3c6e4912c8),
        ("Ocean cont", 16, 0xd9c9c943e25fd027),
        ("Ocean non", 4, 0x9c62fe4ae50c3d72),
        ("Ocean non", 16, 0x9f6deb924ff6174d),
        ("Radiosity", 4, 0xf86a3103653ef9e5),
        ("Radiosity", 16, 0x3734cea1c806498e),
        ("Radix", 4, 0xcf1bc50dae772b9b),
        ("Radix", 16, 0xb7e7d22de333f52c),
        ("Raytrace", 4, 0x57cf474293dd03b2),
        ("Raytrace", 16, 0x1f82861dbba49a46),
        ("Volrend", 4, 0xe504c22305648b0a),
        ("Volrend", 16, 0xe41443b06e511836),
        ("Water n2", 4, 0x30ea56393d5d8ce1),
        ("Water n2", 16, 0xae3c8266bd46d781),
        ("Water sp", 4, 0x72723ecf718be8e1),
        ("Water sp", 16, 0xa2311de9355caf8a),
        ("KV Zipf", 4, 0x2652c1dd8ac9852e),
        ("KV Zipf", 16, 0x10e6660de04a1705),
        ("Graph BFS", 4, 0xf242e8aa971f77b6),
        ("Graph BFS", 16, 0x3a9cbed663a6e7b4),
    ];
    let mut got = Vec::new();
    for app in AppId::ALL.into_iter().chain(AppId::TRAFFIC) {
        for procs in [4, 16] {
            let arena = OpArena::compile(app.build(procs, 42, Scale::SMOKE).streams);
            got.push((app.name(), procs, arena_digest(&arena)));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, procs, d)| format!("        ({name:?}, {procs}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got.as_slice(),
        PINS.as_slice(),
        "stream digests moved:\n{table}"
    );
}
