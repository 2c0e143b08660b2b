//! Simple binary on-disk format for dense Hermitian test matrices.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   8 bytes   "CHASEMAT"
//! scalar  1 byte    0 = f64, 1 = Complex<f64>
//! rows    8 bytes   u64
//! cols    8 bytes   u64
//! data    rows*cols*(8 or 16) bytes, column-major
//! ```
//!
//! Deliberately minimal: enough for the CLI and for persisting generated
//! suites between runs, not a general interchange format.

use chase_linalg::{Matrix, C64};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CHASEMAT";

/// Scalar tag stored in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredScalar {
    F64,
    C64,
}

/// Matrix payload of a loaded file.
#[derive(Debug, Clone)]
pub enum LoadedMatrix {
    F64(Matrix<f64>),
    C64(Matrix<C64>),
}

impl LoadedMatrix {
    pub fn rows(&self) -> usize {
        match self {
            LoadedMatrix::F64(m) => m.rows(),
            LoadedMatrix::C64(m) => m.rows(),
        }
    }

    pub fn scalar(&self) -> StoredScalar {
        match self {
            LoadedMatrix::F64(_) => StoredScalar::F64,
            LoadedMatrix::C64(_) => StoredScalar::C64,
        }
    }
}

fn write_header(w: &mut impl Write, scalar: StoredScalar, rows: u64, cols: u64) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[match scalar {
        StoredScalar::F64 => 0u8,
        StoredScalar::C64 => 1u8,
    }])?;
    w.write_all(&rows.to_le_bytes())?;
    w.write_all(&cols.to_le_bytes())?;
    Ok(())
}

/// Save a real matrix.
pub fn save_f64(m: &Matrix<f64>, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_header(&mut w, StoredScalar::F64, m.rows() as u64, m.cols() as u64)?;
    for v in m.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Save a complex matrix.
pub fn save_c64(m: &Matrix<C64>, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_header(&mut w, StoredScalar::C64, m.rows() as u64, m.cols() as u64)?;
    for v in m.as_slice() {
        w.write_all(&v.re.to_le_bytes())?;
        w.write_all(&v.im.to_le_bytes())?;
    }
    w.flush()
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Load a matrix of either scalar type.
pub fn load(path: impl AsRef<Path>) -> io::Result<LoadedMatrix> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a CHASEMAT file"));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let mut dims = [0u8; 16];
    r.read_exact(&mut dims)?;
    let rows = u64::from_le_bytes(dims[..8].try_into().unwrap()) as usize;
    let cols = u64::from_le_bytes(dims[8..].try_into().unwrap()) as usize;
    let count = rows
        .checked_mul(cols)
        .ok_or_else(|| bad("dimension overflow"))?;
    // Size the payload against the bytes actually present before
    // allocating: a header must never be able to request more memory than
    // its file can fill.
    let elem_bytes: u64 = match tag[0] {
        0 => 8,
        1 => 16,
        t => return Err(bad(&format!("unknown scalar tag {t}"))),
    };
    let header_bytes = (MAGIC.len() + 1 + 16) as u64;
    let left = file_len.saturating_sub(header_bytes);
    if (count as u64)
        .checked_mul(elem_bytes)
        .is_none_or(|need| need > left)
    {
        return Err(bad(&format!(
            "header declares {rows}x{cols} but only {left} payload bytes follow"
        )));
    }
    let f64_at = move |r: &mut BufReader<File>| -> io::Result<f64> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        Ok(f64::from_le_bytes(b))
    };
    if tag[0] == 0 {
        let mut data = Vec::with_capacity(count);
        for _ in 0..count {
            data.push(f64_at(&mut r)?);
        }
        Ok(LoadedMatrix::F64(Matrix::from_vec(rows, cols, data)))
    } else {
        let mut data = Vec::with_capacity(count);
        for _ in 0..count {
            let re = f64_at(&mut r)?;
            let im = f64_at(&mut r)?;
            data.push(C64::new(re, im));
        }
        Ok(LoadedMatrix::C64(Matrix::from_vec(rows, cols, data)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dense_with_spectrum, Spectrum};

    #[test]
    fn roundtrip_c64() {
        let spec = Spectrum::uniform(12, -1.0, 1.0);
        let m = dense_with_spectrum::<C64>(&spec, 1);
        let path = std::env::temp_dir().join("chase_io_test_c64.chasemat");
        save_c64(&m, &path).unwrap();
        match load(&path).unwrap() {
            LoadedMatrix::C64(back) => assert_eq!(back.max_abs_diff(&m), 0.0),
            _ => panic!("wrong scalar"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_f64() {
        let spec = Spectrum::dft_like(16);
        let m = dense_with_spectrum::<f64>(&spec, 2);
        let path = std::env::temp_dir().join("chase_io_test_f64.chasemat");
        save_f64(&m, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.rows(), 16);
        assert_eq!(loaded.scalar(), StoredScalar::F64);
        match loaded {
            LoadedMatrix::F64(back) => assert_eq!(back.max_abs_diff(&m), 0.0),
            _ => panic!("wrong scalar"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_header_is_rejected_before_allocating() {
        // A bare 25-byte header declaring 2^28 x 2^28 f64 (2 EiB) must come
        // back as InvalidData, not abort on the allocation.
        let path = std::env::temp_dir().join("chase_io_test_oversized.chasemat");
        let mut bytes = MAGIC.to_vec();
        bytes.push(0);
        bytes.extend_from_slice(&(1u64 << 28).to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 28).to_le_bytes());
        assert_eq!(bytes.len(), 25);
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // One element short of a 2x2 C64 payload is rejected the same way.
        let mut short = MAGIC.to_vec();
        short.push(1);
        short.extend_from_slice(&2u64.to_le_bytes());
        short.extend_from_slice(&2u64.to_le_bytes());
        short.extend_from_slice(&[0u8; 48]);
        std::fs::write(&path, &short).unwrap();
        assert_eq!(load(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = std::env::temp_dir().join("chase_io_test_garbage.chasemat");
        std::fs::write(&path, b"definitely not a matrix").unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
