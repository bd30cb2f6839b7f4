//! The sweep result store: a fixed-width, mmap-able columnar file format.
//!
//! One file holds the numeric results of one sweep — a matrix of
//! simulation cells — as fixed-width column buffers plus per-column
//! validity masks, modeled on the Arrow-style cluster-shared-memory
//! layout: every column is a contiguous, 8-byte-aligned run of
//! little-endian 64-bit values at a fixed offset, so a reader can map (or
//! read) the file and view any column zero-copy, without parsing.
//!
//! A sweep's store is self-describing: its first columns are the cells'
//! coordinates ([`crate::sweep::COORDS`]), so no second file is needed to
//! tell its rows apart.
//!
//! # Byte-level layout (`COMACOL1`, version 2)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "COMACOL1"
//! 8       4     format version (u32 LE, = 2)
//! 12      4     n_cols (u32 LE)
//! 16      8     n_rows (u64 LE)
//! 24      56·k  column directory, k = n_cols entries of:
//!                 0..32   column name, UTF-8, zero-padded
//!                 32..36  column type (u32 LE): 0 = u64, 1 = f64 (bit pattern)
//!                 36..40  reserved (zero)
//!                 40..48  data offset (u64 LE, absolute, 8-aligned)
//!                 48..56  mask offset (u64 LE, absolute)
//! ...           per column: data = n_rows × 8 bytes, then the validity
//!               mask = ceil(n_rows / 8) bytes (bit r of byte r/8 set ⇔
//!               row r is valid), padded to the next 8-byte boundary.
//! ```
//!
//! All numeric values are stored as `u64` words; `f64` columns hold the
//! value's IEEE-754 bit pattern, so round-trips are exact. A null (masked
//! out) row's data word is written as zero but carries no meaning.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic, also the format version marker.
pub const MAGIC: [u8; 8] = *b"COMACOL1";
/// Format version written to (and required in) the header. Version 2
/// stores lead with their coordinate columns; version 1 stores had only
/// result columns and are rejected.
pub const FORMAT_VERSION: u32 = 2;
/// Fixed width of a column name in the directory.
pub const NAME_BYTES: usize = 32;
/// Size of one column-directory entry.
pub const DIR_ENTRY_BYTES: usize = NAME_BYTES + 24;
const HEADER_BYTES: usize = 24;

/// The type of a column's 64-bit words.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColType {
    U64,
    F64,
}

impl ColType {
    fn code(self) -> u32 {
        match self {
            ColType::U64 => 0,
            ColType::F64 => 1,
        }
    }

    fn from_code(c: u32) -> Option<ColType> {
        match c {
            0 => Some(ColType::U64),
            1 => Some(ColType::F64),
            _ => None,
        }
    }
}

struct Col {
    name: String,
    ty: ColType,
    words: Vec<u64>,
    mask: Vec<u8>,
}

fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

fn mask_bytes(n_rows: usize) -> usize {
    n_rows.div_ceil(8)
}

/// Builds a columnar file in memory, column by column.
pub struct ColBuilder {
    n_rows: usize,
    cols: Vec<Col>,
}

impl ColBuilder {
    pub fn new(n_rows: usize) -> Self {
        ColBuilder {
            n_rows,
            cols: Vec::new(),
        }
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Append a column of `ty` words (an `f64` column's bit patterns);
    /// `None` marks a null (invalid) row.
    pub fn push(&mut self, name: &str, ty: ColType, vals: Vec<Option<u64>>) {
        assert!(
            !name.is_empty() && name.len() <= NAME_BYTES,
            "column name '{name}' must be 1..={NAME_BYTES} bytes"
        );
        assert!(
            self.cols.iter().all(|c| c.name != name),
            "duplicate column '{name}'"
        );
        assert_eq!(
            vals.len(),
            self.n_rows,
            "column '{name}' has {} values for {} rows",
            vals.len(),
            self.n_rows
        );
        let mut words = Vec::with_capacity(self.n_rows);
        let mut mask = vec![0u8; mask_bytes(self.n_rows)];
        for (r, v) in vals.into_iter().enumerate() {
            match v {
                Some(w) => {
                    words.push(w);
                    mask[r / 8] |= 1 << (r % 8);
                }
                None => words.push(0),
            }
        }
        self.cols.push(Col {
            name: name.to_string(),
            ty,
            words,
            mask,
        });
    }

    /// Append a `u64` column; `None` marks a null (invalid) row.
    pub fn col_u64(&mut self, name: &str, vals: Vec<Option<u64>>) -> &mut Self {
        self.push(name, ColType::U64, vals);
        self
    }

    /// Append an `f64` column (stored as bit patterns, exact round-trip).
    pub fn col_f64(&mut self, name: &str, vals: Vec<Option<f64>>) -> &mut Self {
        self.push(
            name,
            ColType::F64,
            vals.into_iter().map(|v| v.map(f64::to_bits)).collect(),
        );
        self
    }

    /// Serialize to the flat file format described in the module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let dir_end = HEADER_BYTES + self.cols.len() * DIR_ENTRY_BYTES;
        let mut offsets = Vec::with_capacity(self.cols.len());
        let mut at = align8(dir_end);
        for _ in &self.cols {
            let data_off = at;
            let mask_off = data_off + self.n_rows * 8;
            at = align8(mask_off + mask_bytes(self.n_rows));
            offsets.push((data_off as u64, mask_off as u64));
        }

        let mut buf = Vec::with_capacity(at);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.cols.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(self.n_rows as u64).to_le_bytes());
        for (col, (data_off, mask_off)) in self.cols.iter().zip(&offsets) {
            let mut name = [0u8; NAME_BYTES];
            name[..col.name.len()].copy_from_slice(col.name.as_bytes());
            buf.extend_from_slice(&name);
            buf.extend_from_slice(&col.ty.code().to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(&data_off.to_le_bytes());
            buf.extend_from_slice(&mask_off.to_le_bytes());
        }
        for col in &self.cols {
            buf.resize(align8(buf.len()), 0);
            for w in &col.words {
                buf.extend_from_slice(&w.to_le_bytes());
            }
            buf.extend_from_slice(&col.mask);
        }
        buf.resize(align8(buf.len()), 0);
        buf
    }

    /// Write the file atomically: a temp file named for this process,
    /// fsync, then a rename. Readers never see a torn file, and two
    /// processes writing the same path never share a temp file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".{}.tmp", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&self.to_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    }
}

struct DirEntry {
    name: String,
    ty: ColType,
    data_off: usize,
    mask_off: usize,
}

/// A parsed (and validated) columnar file; all accessors are zero-copy
/// views into the single backing buffer.
pub struct ColFile {
    buf: Vec<u8>,
    dir: Vec<DirEntry>,
    n_rows: usize,
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

impl ColFile {
    /// Validate and index a columnar file image. Every offset is bounds-
    /// checked here so the accessors can slice without further checks.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self, String> {
        if buf.len() < HEADER_BYTES {
            return Err(format!("file too short ({} bytes) for a header", buf.len()));
        }
        if buf[..8] != MAGIC {
            return Err("bad magic: not a COMACOL1 file".into());
        }
        let version = read_u32(&buf, 8);
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported format version {version} (expected {FORMAT_VERSION})"
            ));
        }
        let n_cols = read_u32(&buf, 12) as usize;
        let n_rows64 = read_u64(&buf, 16);
        let n_rows = usize::try_from(n_rows64).map_err(|_| "row count overflow".to_string())?;
        let dir_end = HEADER_BYTES
            .checked_add(
                n_cols
                    .checked_mul(DIR_ENTRY_BYTES)
                    .ok_or("directory overflow")?,
            )
            .ok_or("directory overflow")?;
        if dir_end > buf.len() {
            return Err(format!(
                "directory of {n_cols} columns exceeds the file ({} bytes)",
                buf.len()
            ));
        }
        let mut dir = Vec::with_capacity(n_cols);
        for k in 0..n_cols {
            let at = HEADER_BYTES + k * DIR_ENTRY_BYTES;
            let raw_name = &buf[at..at + NAME_BYTES];
            let end = raw_name.iter().position(|&b| b == 0).unwrap_or(NAME_BYTES);
            if raw_name[end..].iter().any(|&b| b != 0) {
                return Err(format!("column {k}: name padding is not zero"));
            }
            let name = std::str::from_utf8(&raw_name[..end])
                .map_err(|_| format!("column {k}: name is not UTF-8"))?
                .to_string();
            if name.is_empty() {
                return Err(format!("column {k}: empty name"));
            }
            if dir.iter().any(|e: &DirEntry| e.name == name) {
                return Err(format!("duplicate column '{name}'"));
            }
            let ty = ColType::from_code(read_u32(&buf, at + NAME_BYTES))
                .ok_or_else(|| format!("column '{name}': unknown type code"))?;
            let data_off = read_u64(&buf, at + NAME_BYTES + 8);
            let mask_off = read_u64(&buf, at + NAME_BYTES + 16);
            let data_end = data_off.checked_add(n_rows64.checked_mul(8).ok_or("size overflow")?);
            let mask_end = mask_off.checked_add(mask_bytes(n_rows) as u64);
            match (data_end, mask_end) {
                (Some(d), Some(m)) if d <= buf.len() as u64 && m <= buf.len() as u64 => {}
                _ => return Err(format!("column '{name}': offsets exceed the file")),
            }
            if !data_off.is_multiple_of(8) {
                return Err(format!("column '{name}': data is not 8-aligned"));
            }
            dir.push(DirEntry {
                name,
                ty,
                data_off: data_off as usize,
                mask_off: mask_off as usize,
            });
        }
        Ok(ColFile { buf, dir, n_rows })
    }

    /// Read and validate a columnar file from disk.
    pub fn open(path: &Path) -> Result<Self, String> {
        let buf = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_bytes(buf)
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.dir.len()
    }

    /// The complete serialized file image (zero-copy) — what `open` read
    /// or `from_bytes` was given; byte-comparable across runs.
    pub fn raw_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Column names, in file order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.dir.iter().map(|e| e.name.as_str())
    }

    fn entry(&self, col: &str) -> &DirEntry {
        self.dir
            .iter()
            .find(|e| e.name == col)
            .unwrap_or_else(|| panic!("no column '{col}' in the store"))
    }

    /// The type of a column, if present.
    pub fn col_type(&self, col: &str) -> Option<ColType> {
        self.dir.iter().find(|e| e.name == col).map(|e| e.ty)
    }

    /// The raw little-endian data words of a column (zero-copy).
    pub fn raw_data(&self, col: &str) -> &[u8] {
        let e = self.entry(col);
        &self.buf[e.data_off..e.data_off + self.n_rows * 8]
    }

    /// The raw validity mask of a column (zero-copy).
    pub fn raw_mask(&self, col: &str) -> &[u8] {
        let e = self.entry(col);
        &self.buf[e.mask_off..e.mask_off + mask_bytes(self.n_rows)]
    }

    /// Is `row` valid (non-null) in `col`? Panics on an unknown column or
    /// an out-of-range row — both are caller bugs, not data conditions.
    pub fn is_valid(&self, col: &str, row: usize) -> bool {
        assert!(row < self.n_rows, "row {row} out of {} rows", self.n_rows);
        let e = self.entry(col);
        self.buf[e.mask_off + row / 8] & (1 << (row % 8)) != 0
    }

    fn word(&self, e: &DirEntry, row: usize) -> u64 {
        read_u64(&self.buf, e.data_off + row * 8)
    }

    /// A `u64` cell; `None` means the row is null in this column.
    pub fn get_u64(&self, col: &str, row: usize) -> Option<u64> {
        assert!(row < self.n_rows, "row {row} out of {} rows", self.n_rows);
        let e = self.entry(col);
        assert_eq!(e.ty, ColType::U64, "column '{col}' is not u64");
        self.is_valid(col, row).then(|| self.word(e, row))
    }

    /// An `f64` cell; `None` means the row is null in this column.
    pub fn get_f64(&self, col: &str, row: usize) -> Option<f64> {
        assert!(row < self.n_rows, "row {row} out of {} rows", self.n_rows);
        let e = self.entry(col);
        assert_eq!(e.ty, ColType::F64, "column '{col}' is not f64");
        self.is_valid(col, row)
            .then(|| f64::from_bits(self.word(e, row)))
    }

    /// Every value of a `u64` column, nulls as `None`.
    pub fn u64_col(&self, col: &str) -> Vec<Option<u64>> {
        (0..self.n_rows).map(|r| self.get_u64(col, r)).collect()
    }

    /// Every value of an `f64` column, nulls as `None`.
    pub fn f64_col(&self, col: &str) -> Vec<Option<f64>> {
        (0..self.n_rows).map(|r| self.get_f64(col, r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_helpers() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(9), 16);
        assert_eq!(mask_bytes(0), 0);
        assert_eq!(mask_bytes(1), 1);
        assert_eq!(mask_bytes(8), 1);
        assert_eq!(mask_bytes(9), 2);
    }

    #[test]
    fn in_memory_round_trip() {
        let mut b = ColBuilder::new(3);
        b.col_u64("exec", vec![Some(10), None, Some(30)]);
        b.col_f64("rate", vec![Some(0.5), Some(f64::MIN_POSITIVE), None]);
        let f = ColFile::from_bytes(b.to_bytes()).unwrap();
        assert_eq!(f.n_rows(), 3);
        assert_eq!(f.n_cols(), 2);
        assert_eq!(f.u64_col("exec"), vec![Some(10), None, Some(30)]);
        assert_eq!(
            f.f64_col("rate"),
            vec![Some(0.5), Some(f64::MIN_POSITIVE), None]
        );
        assert!(f.is_valid("exec", 0));
        assert!(!f.is_valid("exec", 1));
    }

    #[test]
    fn zero_copy_slices_have_fixed_width() {
        let mut b = ColBuilder::new(10);
        b.col_u64("c", (0..10).map(|i| Some(i as u64)).collect());
        let f = ColFile::from_bytes(b.to_bytes()).unwrap();
        assert_eq!(f.raw_data("c").len(), 80);
        assert_eq!(f.raw_mask("c").len(), 2);
        // Data is little-endian words at fixed offsets.
        assert_eq!(f.raw_data("c")[8..16], 1u64.to_le_bytes());
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let mut b = ColBuilder::new(1);
        b.col_u64("c", vec![Some(1)]);
        let good = b.to_bytes();

        assert!(ColFile::from_bytes(Vec::new()).is_err());
        let mut bad = good.clone();
        bad[0] ^= 0xff; // magic
        assert!(ColFile::from_bytes(bad).is_err());
        let mut bad = good.clone();
        bad[8] = 99; // version
        assert!(ColFile::from_bytes(bad).is_err());
        let mut bad = good.clone();
        bad[12] = 200; // n_cols beyond the file
        assert!(ColFile::from_bytes(bad).is_err());
        let bad = good[..good.len() - 8].to_vec(); // truncated data region
        assert!(ColFile::from_bytes(bad).is_err());
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        let f = ColFile::from_bytes(ColBuilder::new(0).to_bytes()).unwrap();
        f.raw_data("nope");
    }

    #[test]
    #[should_panic(expected = "is not u64")]
    fn type_mismatch_panics() {
        let mut b = ColBuilder::new(1);
        b.col_f64("r", vec![Some(1.0)]);
        let f = ColFile::from_bytes(b.to_bytes()).unwrap();
        f.get_u64("r", 0);
    }
}
