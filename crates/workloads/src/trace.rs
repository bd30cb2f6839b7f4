//! Trace recording and replay.
//!
//! Generating a reference stream is cheap here, but real trace tooling is
//! the historically awkward part of COMA studies (the paper's traces came
//! from SimICS runs that took hours). This module lets any workload be
//! **recorded once** into a compact binary file and **replayed** later —
//! so experiments can share bit-identical inputs, external traces can be
//! imported, and regression baselines can be pinned.
//!
//! Format (little-endian, varint-compressed):
//!
//! ```text
//! magic "COMATRC1" | u32 n_procs | u64 ws_bytes | u32 n_locks
//! per processor: u64 op_count, then op_count ops:
//!   opcode u8: 0=Compute 1=Read 2=Write 3=Lock 4=Unlock 5=Barrier
//!   payload: varint (instruction count, byte address, or sync id)
//! ```
//!
//! Read/Write addresses are delta-encoded per processor (zig-zag varint)
//! — sequential sweeps compress to ~2 bytes per reference.

use crate::op::{Op, OpStream};
use crate::workload::Workload;
use coma_types::{Addr, MAX_LINE};
use std::io::{self, BufReader, BufWriter, Read, Write};

const MAGIC: &[u8; 8] = b"COMATRC1";

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8];
        r.read_exact(&mut b)?;
        v |= ((b[0] & 0x7f) as u64) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflow",
            ));
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Record a workload's full trace to a writer. Consumes the workload
/// (streams can only be drained once).
pub fn record<W: Write>(mut wl: Workload, w: W) -> io::Result<TraceStats> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&(wl.streams.len() as u32).to_le_bytes())?;
    w.write_all(&wl.ws_bytes.to_le_bytes())?;
    w.write_all(&wl.n_locks.to_le_bytes())?;
    let mut stats = TraceStats::default();
    for s in &mut wl.streams {
        // Buffer this processor's ops to know the count up front.
        let mut ops = Vec::new();
        while let Some(op) = s.next_op() {
            ops.push(op);
        }
        w.write_all(&(ops.len() as u64).to_le_bytes())?;
        let mut last_addr = 0i64;
        for op in ops {
            stats.ops += 1;
            match op {
                Op::Compute(n) => {
                    w.write_all(&[0])?;
                    write_varint(&mut w, n as u64)?;
                }
                Op::Read(a) | Op::Write(a) => {
                    let code = if matches!(op, Op::Read(_)) { 1 } else { 2 };
                    w.write_all(&[code])?;
                    let delta = a.0 as i64 - last_addr;
                    last_addr = a.0 as i64;
                    write_varint(&mut w, zigzag(delta))?;
                    stats.refs += 1;
                }
                Op::Lock(id) => {
                    w.write_all(&[3])?;
                    write_varint(&mut w, id as u64)?;
                }
                Op::Unlock(id) => {
                    w.write_all(&[4])?;
                    write_varint(&mut w, id as u64)?;
                }
                Op::Barrier(id) => {
                    w.write_all(&[5])?;
                    write_varint(&mut w, id as u64)?;
                }
            }
        }
    }
    w.flush()?;
    Ok(stats)
}

/// Summary of a recorded trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total operations recorded.
    pub ops: u64,
    /// Memory references among them.
    pub refs: u64,
}

/// A replayable per-processor trace (fully decoded into memory).
struct ReplayStream {
    ops: std::vec::IntoIter<Op>,
}

impl OpStream for ReplayStream {
    fn next_op(&mut self) -> Option<Op> {
        self.ops.next()
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Load a recorded trace back into a [`Workload`].
///
/// The file is untrusted, so anything the simulator cannot run is an
/// [`io::ErrorKind::InvalidData`] error here rather than a crash later:
/// a working set plus sync lines beyond the line range ([`MAX_LINE`]),
/// a Read or Write address at or beyond `ws_bytes`, a Lock or Unlock id
/// at or beyond `n_locks`, and unbalanced sync in one processor's stream:
/// an Unlock of a lock it does not hold, a Lock of one it already holds,
/// a stream that ends holding a lock, and a `k`-th Barrier (counting from
/// 0) whose id is not `k`, the order the simulator gathers barriers in.
/// A stream may stop before the others' last barrier. Deadlocks between
/// processors (two locks taken in opposite orders) are not detected.
pub fn replay<R: Read>(r: R) -> io::Result<Workload> {
    let mut r = BufReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a COMA trace",
        ));
    }
    let mut u32b = [0u8; 4];
    let mut u64b = [0u8; 8];
    r.read_exact(&mut u32b)?;
    let n_procs = u32::from_le_bytes(u32b) as usize;
    r.read_exact(&mut u64b)?;
    let ws_bytes = u64::from_le_bytes(u64b);
    r.read_exact(&mut u32b)?;
    let n_locks = u32::from_le_bytes(u32b);
    let mut wl = Workload {
        name: "replayed trace",
        ws_bytes,
        n_locks,
        streams: Vec::new(),
    };
    // Line numbers run from 0 to `total_lines - 1`.
    if wl.total_lines() > MAX_LINE + 1 {
        return Err(invalid(format!(
            "{ws_bytes}-byte working set and {n_locks} locks need {} lines; \
             at most {} fit",
            wl.total_lines(),
            MAX_LINE + 1
        )));
    }

    // The header counts are untrusted, so nothing is pre-sized from them:
    // a lying count ends in a read error at end of file, not a huge
    // allocation.
    for p in 0..n_procs {
        r.read_exact(&mut u64b)?;
        let count = u64::from_le_bytes(u64b);
        let mut ops = Vec::new();
        let mut last_addr = 0i64;
        // Locks this processor holds (a short list: never sized from the
        // untrusted `n_locks`) and the barriers it has passed.
        let mut held: Vec<u32> = Vec::new();
        let mut barriers = 0u64;
        for _ in 0..count {
            let mut code = [0u8];
            r.read_exact(&mut code)?;
            let payload = read_varint(&mut r)?;
            let op = match code[0] {
                0 => Op::Compute(payload as u32),
                1 | 2 => {
                    let addr = match last_addr.checked_add(unzigzag(payload)) {
                        Some(a) if a >= 0 => a,
                        _ => return Err(invalid("negative address in trace".into())),
                    };
                    last_addr = addr;
                    if addr as u64 >= ws_bytes {
                        return Err(invalid(format!(
                            "address {addr:#x} beyond the {ws_bytes}-byte working set"
                        )));
                    }
                    if code[0] == 1 {
                        Op::Read(Addr(addr as u64))
                    } else {
                        Op::Write(Addr(addr as u64))
                    }
                }
                3 | 4 if payload >= n_locks as u64 => {
                    return Err(invalid(format!(
                        "lock id {payload} beyond the trace's {n_locks} locks"
                    )))
                }
                3 | 4 => {
                    let id = payload as u32;
                    match (code[0], held.iter().position(|&l| l == id)) {
                        (3, None) => {
                            held.push(id);
                            Op::Lock(id)
                        }
                        (4, Some(i)) => {
                            held.swap_remove(i);
                            Op::Unlock(id)
                        }
                        (3, Some(_)) => {
                            return Err(invalid(format!(
                                "processor {p} locks lock {id}, which it already holds"
                            )))
                        }
                        _ => {
                            return Err(invalid(format!(
                                "processor {p} unlocks lock {id}, which it does not hold"
                            )))
                        }
                    }
                }
                5 if payload != barriers => {
                    return Err(invalid(format!(
                        "processor {p} reaches barrier {payload} as its barrier {barriers}"
                    )))
                }
                5 => {
                    barriers += 1;
                    Op::Barrier(payload as u32)
                }
                c => return Err(invalid(format!("bad opcode {c}"))),
            };
            ops.push(op);
        }
        if let Some(l) = held.first() {
            return Err(invalid(format!("processor {p} ends holding lock {l}")));
        }
        wl.streams.push(Box::new(ReplayStream {
            ops: ops.into_iter(),
        }));
    }
    Ok(wl)
}

/// Record to a file.
pub fn record_to_file(wl: Workload, path: &std::path::Path) -> io::Result<TraceStats> {
    record(wl, std::fs::File::create(path)?)
}

/// Replay from a file.
pub fn replay_from_file(path: &std::path::Path) -> io::Result<Workload> {
    replay(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::AppId;
    use crate::stream::Scale;

    fn drain(wl: &mut Workload) -> Vec<Vec<Op>> {
        wl.streams
            .iter_mut()
            .map(|s| {
                let mut v = Vec::new();
                while let Some(op) = s.next_op() {
                    v.push(op);
                }
                v
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = AppId::Radiosity.build(4, 7, Scale::SMOKE);
        let mut reference = AppId::Radiosity.build(4, 7, Scale::SMOKE);
        let want = drain(&mut reference);

        let mut buf = Vec::new();
        let stats = record(original, &mut buf).unwrap();
        assert!(stats.ops > 0 && stats.refs > 0);

        let mut replayed = replay(buf.as_slice()).unwrap();
        assert_eq!(replayed.ws_bytes, reference.ws_bytes);
        assert_eq!(replayed.n_locks, reference.n_locks);
        let got = drain(&mut replayed);
        assert_eq!(got, want);
    }

    #[test]
    fn compression_beats_naive_encoding() {
        let wl = AppId::Fft.build(4, 1, Scale::SMOKE);
        let mut buf = Vec::new();
        let stats = record(wl, &mut buf).unwrap();
        // Naive encoding would be ≥ 9 bytes/op; delta-varint must do much
        // better on these mostly-sequential streams.
        let bytes_per_op = buf.len() as f64 / stats.ops as f64;
        assert!(
            bytes_per_op < 5.0,
            "only {:.1} bytes/op compression",
            bytes_per_op
        );
    }

    #[test]
    fn replayed_trace_simulates_identically() {
        // A replayed trace must produce the exact same simulation result.
        use coma_types::Rng64;
        let _ = Rng64::new(0); // (crate linkage)
        let buf = {
            let wl = AppId::WaterSp.build(4, 3, Scale::SMOKE);
            let mut b = Vec::new();
            record(wl, &mut b).unwrap();
            b
        };
        let mut a = replay(buf.as_slice()).unwrap();
        let mut b = replay(buf.as_slice()).unwrap();
        assert_eq!(drain(&mut a), drain(&mut b));
    }

    #[test]
    fn rejects_garbage() {
        assert!(replay(&b"NOTATRACE"[..]).is_err());
        let mut buf = Vec::new();
        record(AppId::WaterN2.build(2, 1, Scale::SMOKE), &mut buf).unwrap();
        buf[3] ^= 0xff; // corrupt the magic
        assert!(replay(buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_trace_fails_cleanly() {
        let mut buf = Vec::new();
        record(AppId::WaterN2.build(2, 1, Scale::SMOKE), &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(replay(buf.as_slice()).is_err());
    }

    /// A header: magic, `n_procs`, `ws_bytes`, `n_locks`.
    fn header(n_procs: u32, ws_bytes: u64, n_locks: u32) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&n_procs.to_le_bytes());
        buf.extend_from_slice(&ws_bytes.to_le_bytes());
        buf.extend_from_slice(&n_locks.to_le_bytes());
        buf
    }

    /// A 16-processor trace: processor 0 runs the `n_ops` encoded ops in
    /// `ops`, the other 15 streams are empty.
    fn sixteen_procs(ws_bytes: u64, n_locks: u32, n_ops: u64, ops: &[u8]) -> Vec<u8> {
        let mut buf = header(16, ws_bytes, n_locks);
        buf.extend_from_slice(&n_ops.to_le_bytes());
        buf.extend_from_slice(ops);
        for _ in 1..16 {
            buf.extend_from_slice(&0u64.to_le_bytes());
        }
        buf
    }

    fn assert_invalid(buf: &[u8], len: usize) {
        assert_eq!(buf.len(), len);
        let err = replay(buf).err().expect("crafted trace accepted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    const MIB: u64 = 1 << 20;

    #[test]
    fn lock_count_beyond_the_line_range_is_invalid_not_a_huge_allocation() {
        assert_invalid(&sixteen_procs(MIB, u32::MAX, 0, &[]), 152);
    }

    #[test]
    fn working_set_beyond_the_line_range_is_invalid_not_a_huge_allocation() {
        assert_invalid(&sixteen_procs(1 << 50, 0, 0, &[]), 152);
        // The largest accepted header: its last sync line is MAX_LINE.
        let ws_bytes = (MAX_LINE + 1 - 2) * 64;
        assert!(replay(header(0, ws_bytes, 0).as_slice()).is_ok());
        assert_invalid(&header(0, ws_bytes + 1, 0), 24);
    }

    #[test]
    fn read_beyond_the_working_set_is_invalid_not_a_compile_panic() {
        // Read, address delta 2^40 (zig-zag 2^41: a 6-byte varint).
        let mut ops = vec![1];
        write_varint(&mut ops, zigzag(1 << 40)).unwrap();
        assert_invalid(&sixteen_procs(MIB, 0, 1, &ops), 159);
        // The last byte of the working set is fine; the next is not.
        let mut ops = vec![2];
        write_varint(&mut ops, zigzag(MIB as i64 - 1)).unwrap();
        assert!(replay(sixteen_procs(MIB, 0, 1, &ops).as_slice()).is_ok());
        ops.extend_from_slice(&[1, 2]); // Read at delta +1
        assert_invalid(&sixteen_procs(MIB, 0, 2, &ops), 158);
        // A delta that overflows the running address is invalid too.
        let mut ops = vec![1, 2, 1];
        write_varint(&mut ops, zigzag(i64::MAX)).unwrap();
        assert_invalid(&sixteen_procs(MIB, 0, 2, &ops), 165);
    }

    #[test]
    fn lock_id_beyond_the_lock_count_is_invalid_not_an_index_panic() {
        // Lock(5), Unlock(5) with no locks declared.
        let ops = [3, 5, 4, 5];
        assert_invalid(&sixteen_procs(MIB, 0, 2, &ops), 156);
        assert_invalid(&sixteen_procs(MIB, 0, 1, &ops[2..]), 154);
        assert!(replay(sixteen_procs(MIB, 6, 2, &ops).as_slice()).is_ok());
    }

    /// A 16-processor trace over 1 MiB: processor `i` runs the `n_ops`
    /// encoded ops of `streams[i]`, and the streams past the list are
    /// empty.
    fn sixteen_streams(n_locks: u32, streams: &[(u64, &[u8])]) -> Vec<u8> {
        let mut buf = header(16, MIB, n_locks);
        for i in 0..16 {
            let (n_ops, ops) = streams.get(i).copied().unwrap_or((0, &[]));
            buf.extend_from_slice(&n_ops.to_le_bytes());
            buf.extend_from_slice(ops);
        }
        buf
    }

    #[test]
    fn unbalanced_lock_use_is_invalid_not_a_sync_panic() {
        // Unlock(0) with no Lock: a release by a non-holder.
        assert_invalid(&sixteen_streams(1, &[(1, &[4, 0])]), 154);
        // Lock(0) twice: the holder would park on itself.
        assert_invalid(&sixteen_streams(1, &[(2, &[3, 0, 3, 0])]), 156);
        // Unlock(1) while holding only lock 0.
        assert_invalid(&sixteen_streams(2, &[(2, &[3, 0, 4, 1])]), 156);
        // Nested and overlapping pairs are fine, and a lock may be
        // taken again after its release.
        let ops = [3, 0, 3, 1, 4, 0, 4, 1, 3, 0, 4, 0];
        assert!(replay(sixteen_streams(2, &[(6, &ops), (6, &ops)]).as_slice()).is_ok());
    }

    #[test]
    fn stream_ending_with_a_held_lock_is_invalid_not_a_deadlock_panic() {
        // Processors 0 and 1 each take lock 0 and stop.
        assert_invalid(&sixteen_streams(1, &[(1, &[3, 0]), (1, &[3, 0])]), 156);
    }

    #[test]
    fn barriers_out_of_order_are_invalid_not_a_sync_panic() {
        // Processor 1's first barrier is Barrier(1).
        assert_invalid(&sixteen_streams(0, &[(1, &[5, 0]), (1, &[5, 1])]), 156);
        // Barrier 1 skipped.
        assert_invalid(&sixteen_streams(0, &[(2, &[5, 0, 5, 2])]), 156);
        // In order is fine, and a stream may stop before the others.
        let trace = sixteen_streams(0, &[(2, &[5, 0, 5, 1]), (1, &[5, 0])]);
        assert!(replay(trace.as_slice()).is_ok());
    }

    #[test]
    fn every_catalog_app_smoke_trace_replays() {
        for app in AppId::ALL.into_iter().chain(AppId::TRAFFIC) {
            let mut buf = Vec::new();
            record(app.build(16, 42, Scale::SMOKE), &mut buf).unwrap();
            if let Err(e) = replay(buf.as_slice()) {
                panic!("{}: {e}", app.name());
            }
        }
    }

    #[test]
    fn huge_op_count_is_an_error_not_a_capacity_overflow() {
        let mut buf = header(1, 0, 0);
        buf.extend_from_slice(&(1u64 << 62).to_le_bytes());
        assert_eq!(buf.len(), 32);
        assert!(replay(buf.as_slice()).is_err());
    }

    #[test]
    fn huge_processor_count_is_an_error_not_a_huge_allocation() {
        let buf = header(u32::MAX, 0, 0);
        assert_eq!(buf.len(), 24);
        assert!(replay(buf.as_slice()).is_err());
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
