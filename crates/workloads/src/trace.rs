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
use coma_types::Addr;
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

/// Load a recorded trace back into a [`Workload`].
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

    // The header counts are untrusted, so nothing is pre-sized from them:
    // a lying count ends in a read error at end of file, not a huge
    // allocation.
    let mut streams: Vec<Box<dyn OpStream>> = Vec::new();
    for _ in 0..n_procs {
        r.read_exact(&mut u64b)?;
        let count = u64::from_le_bytes(u64b);
        let mut ops = Vec::new();
        let mut last_addr = 0i64;
        for _ in 0..count {
            let mut code = [0u8];
            r.read_exact(&mut code)?;
            let payload = read_varint(&mut r)?;
            let op = match code[0] {
                0 => Op::Compute(payload as u32),
                1 | 2 => {
                    let addr = last_addr + unzigzag(payload);
                    last_addr = addr;
                    if addr < 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "negative address in trace",
                        ));
                    }
                    if code[0] == 1 {
                        Op::Read(Addr(addr as u64))
                    } else {
                        Op::Write(Addr(addr as u64))
                    }
                }
                3 => Op::Lock(payload as u32),
                4 => Op::Unlock(payload as u32),
                5 => Op::Barrier(payload as u32),
                c => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad opcode {c}"),
                    ))
                }
            };
            ops.push(op);
        }
        streams.push(Box::new(ReplayStream {
            ops: ops.into_iter(),
        }));
    }
    Ok(Workload {
        name: "replayed trace",
        ws_bytes,
        n_locks,
        streams,
    })
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

    /// A header: magic, `n_procs`, `ws_bytes` = 0, `n_locks` = 0.
    fn header(n_procs: u32) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&n_procs.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf
    }

    #[test]
    fn huge_op_count_is_an_error_not_a_capacity_overflow() {
        let mut buf = header(1);
        buf.extend_from_slice(&(1u64 << 62).to_le_bytes());
        assert_eq!(buf.len(), 32);
        assert!(replay(buf.as_slice()).is_err());
    }

    #[test]
    fn huge_processor_count_is_an_error_not_a_huge_allocation() {
        let buf = header(u32::MAX);
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
