//! Binary serialization of CSR matrices.
//!
//! Synthesizing the larger Table II graphs takes seconds; pipelines that
//! run many harnesses over the same inputs can persist them once with
//! [`write_csr`] and reload with [`read_csr`]. The format is a small
//! versioned little-endian layout (magic, version, dimensions, then the
//! three CSR arrays), independent of `serde` so files are portable and
//! cheap to stream.

use std::io::{Read, Write};

use crate::{CsrMatrix, SparseFormatError};

/// File magic: "MPSM" (MergePath-SpMM) + format version 1.
const MAGIC: [u8; 4] = *b"MPSM";
const VERSION: u32 = 1;

/// Most elements [`read_csr`] reserves up front from a header count.
/// Larger arrays grow as the stream delivers them, so a forged header
/// claiming billions of rows ends in `UnexpectedEof` instead of a huge
/// (or overflowing) allocation.
const MAX_PREALLOC: usize = 1 << 16;

/// Errors from reading a serialized matrix.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream does not start with the expected magic bytes.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u32),
    /// The decoded arrays do not form a valid CSR matrix.
    InvalidMatrix(SparseFormatError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o failure: {e}"),
            IoError::BadMagic(m) => write!(f, "bad magic {m:?}, expected \"MPSM\""),
            IoError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            IoError::InvalidMatrix(e) => write!(f, "decoded data is not valid CSR: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::InvalidMatrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn write_u64(w: &mut impl Write, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes a matrix to `w` in the MPSM v1 binary format.
///
/// A mutable reference to any writer can be passed (`&mut file`).
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_csr<W: Write>(mut w: W, matrix: &CsrMatrix<f32>) -> Result<(), IoError> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_u64(&mut w, matrix.rows() as u64)?;
    write_u64(&mut w, matrix.cols() as u64)?;
    write_u64(&mut w, matrix.nnz() as u64)?;
    for &p in matrix.row_ptr() {
        write_u64(&mut w, p as u64)?;
    }
    for &c in matrix.col_indices() {
        write_u64(&mut w, c as u64)?;
    }
    for &v in matrix.values() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a matrix written by [`write_csr`], re-validating every CSR
/// invariant (a corrupted or truncated stream cannot produce an invalid
/// matrix).
///
/// # Errors
///
/// Returns [`IoError`] on I/O failure, wrong magic/version, or invalid
/// decoded structure.
pub fn read_csr<R: Read>(mut r: R) -> Result<CsrMatrix<f32>, IoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(IoError::BadMagic(magic));
    }
    let mut vbuf = [0u8; 4];
    r.read_exact(&mut vbuf)?;
    let version = u32::from_le_bytes(vbuf);
    if version != VERSION {
        return Err(IoError::BadVersion(version));
    }
    let rows = read_u64(&mut r)? as usize;
    let cols = read_u64(&mut r)? as usize;
    let nnz = read_u64(&mut r)? as usize;
    let row_ptr_len = rows.checked_add(1).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "row count overflows")
    })?;
    let mut row_ptr = Vec::with_capacity(row_ptr_len.min(MAX_PREALLOC));
    for _ in 0..row_ptr_len {
        row_ptr.push(read_u64(&mut r)? as usize);
    }
    let mut col_indices = Vec::with_capacity(nnz.min(MAX_PREALLOC));
    for _ in 0..nnz {
        col_indices.push(read_u64(&mut r)? as usize);
    }
    let mut values = Vec::with_capacity(nnz.min(MAX_PREALLOC));
    let mut fbuf = [0u8; 4];
    for _ in 0..nnz {
        r.read_exact(&mut fbuf)?;
        values.push(f32::from_le_bytes(fbuf));
    }
    CsrMatrix::new(rows, cols, row_ptr, col_indices, values).map_err(IoError::InvalidMatrix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f32> {
        CsrMatrix::from_triplets(
            4,
            5,
            &[(0, 1, 1.5), (1, 0, -2.0), (1, 4, 3.25), (3, 2, 0.5)],
        )
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).unwrap();
        let back = read_csr(buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn empty_matrix_round_trips() {
        let m = CsrMatrix::<f32>::zeros(3, 3);
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).unwrap();
        assert_eq!(read_csr(buf.as_slice()).unwrap(), m);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_csr(&b"NOPE...."[..]).unwrap_err();
        assert!(matches!(err, IoError::BadMagic(_)));
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write_csr(&mut buf, &sample()).unwrap();
        buf[4] = 99; // bump the version field
        assert!(matches!(
            read_csr(buf.as_slice()).unwrap_err(),
            IoError::BadVersion(99)
        ));
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = Vec::new();
        write_csr(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_csr(buf.as_slice()).unwrap_err(),
            IoError::Io(_)
        ));
    }

    #[test]
    fn rejects_forged_header_counts_without_panicking() {
        // A bare header (no payload) claiming absurd row counts must end
        // in an error, never a capacity-overflow or arithmetic panic.
        for rows in [1u64 << 60, u64::MAX] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC);
            buf.extend_from_slice(&VERSION.to_le_bytes());
            for field in [rows, 4, 1u64 << 60] {
                buf.extend_from_slice(&field.to_le_bytes());
            }
            assert!(
                matches!(read_csr(buf.as_slice()), Err(IoError::Io(_))),
                "rows = {rows:#x}"
            );
        }
    }

    #[test]
    fn rejects_corrupted_structure() {
        let mut buf = Vec::new();
        write_csr(&mut buf, &sample()).unwrap();
        // Corrupt the first row-pointer entry (offset: 4 magic + 4 version
        // + 3×8 header = 32) to a non-zero start.
        buf[32] = 7;
        assert!(matches!(
            read_csr(buf.as_slice()).unwrap_err(),
            IoError::InvalidMatrix(_)
        ));
    }

    #[test]
    fn file_round_trip() {
        let m = sample();
        let path = std::env::temp_dir().join("mpspmm_io_test.mpsm");
        write_csr(std::fs::File::create(&path).unwrap(), &m).unwrap();
        let back = read_csr(std::fs::File::open(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m, back);
    }
}
