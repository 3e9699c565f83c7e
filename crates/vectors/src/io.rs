//! CSV import/export of test vectors.
//!
//! Sign-off teams exchange current traces as simple tabular files; this
//! module reads and writes them so the `pdn` CLI (and downstream tools) can
//! consume workloads that did not come from the built-in generator.
//!
//! Format: a header line `# pdn-wnv test-vector, dt_ps=<f64>`, then one row
//! per time stamp with comma-separated per-load currents in amperes.

use crate::vector::TestVector;
use pdn_core::units::Seconds;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Writes a test vector as CSV.
///
/// # Errors
///
/// Propagates I/O errors.
///
/// # Example
///
/// ```
/// use pdn_vectors::io::{read_csv, write_csv};
/// use pdn_vectors::vector::TestVector;
/// use pdn_core::units::Seconds;
///
/// # fn main() -> std::io::Result<()> {
/// let v = TestVector::from_rows(vec![vec![1e-3, 2e-3]], Seconds::from_picos(10.0));
/// let mut buf = Vec::new();
/// write_csv(&v, &mut buf)?;
/// let back = read_csv(&mut buf.as_slice())?;
/// assert_eq!(back, v);
/// # Ok(())
/// # }
/// ```
pub fn write_csv<W: Write>(vector: &TestVector, mut writer: W) -> io::Result<()> {
    writeln!(writer, "# pdn-wnv test-vector, dt_ps={}", vector.time_step().0 * 1e12)?;
    for k in 0..vector.step_count() {
        let row: Vec<String> = vector.step(k).iter().map(|i| format!("{i:e}")).collect();
        writeln!(writer, "{}", row.join(","))?;
    }
    Ok(())
}

/// Writes a test vector to a file path atomically (staged to a temporary
/// file and renamed, so an interrupted export never leaves a torn CSV).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv_file(vector: &TestVector, path: impl AsRef<Path>) -> io::Result<()> {
    pdn_core::fsio::atomic_write_with(path.as_ref(), |w| write_csv(vector, w))
}

/// Reads a test vector from CSV produced by [`write_csv`] (or any file with
/// the same shape; a missing header defaults to `dt = 1 ps`).
///
/// # Errors
///
/// Returns `InvalidData` for ragged rows, unparseable numbers or an empty
/// file; propagates reader I/O errors.
pub fn read_csv<R: io::Read>(reader: R) -> io::Result<TestVector> {
    let buf = io::BufReader::new(reader);
    let mut dt = Seconds::from_picos(1.0);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            if let Some(v) = rest.split("dt_ps=").nth(1) {
                let ps: f64 = v.trim().parse().map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad dt_ps: {e}"))
                })?;
                // A zero, negative, or non-finite time step would poison
                // every backward-Euler companion term downstream; reject it
                // here where the file and line are known.
                if !ps.is_finite() || ps <= 0.0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("dt_ps must be a positive finite number, got {ps}"),
                    ));
                }
                dt = Seconds::from_picos(ps);
            }
            continue;
        }
        let row: Result<Vec<f64>, _> = trimmed.split(',').map(|c| c.trim().parse()).collect();
        let row = row.map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {e}", lineno + 1))
        })?;
        // `parse` accepts NaN and inf, which would poison the transient
        // solve and the temporal compressor's sort.
        if let Some(bad) = row.iter().find(|v| !v.is_finite()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: samples must be finite, got {bad}", lineno + 1),
            ));
        }
        if let Some(first) = rows.first() {
            if row.len() != first.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: expected {} columns, got {}", lineno + 1, first.len(), row.len()),
                ));
            }
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty test-vector file"));
    }
    Ok(TestVector::from_rows(rows, dt))
}

/// Reads a test vector from a file path.
///
/// # Errors
///
/// Same as [`read_csv`].
pub fn read_csv_file(path: impl AsRef<Path>) -> io::Result<TestVector> {
    read_csv(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TestVector {
        TestVector::from_rows(
            vec![vec![1e-3, 0.0, 2.5e-4], vec![0.0, 3e-3, 1e-5]],
            Seconds::from_picos(5.0),
        )
    }

    #[test]
    fn round_trip_exact() {
        let v = sample();
        let mut buf = Vec::new();
        write_csv(&v, &mut buf).unwrap();
        let back = read_csv(&mut buf.as_slice()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pdn_vectors_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.csv");
        write_csv_file(&sample(), &path).unwrap();
        assert_eq!(read_csv_file(&path).unwrap(), sample());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_header_defaults_dt() {
        let v = read_csv("1.0,2.0\n3.0,4.0\n".as_bytes()).unwrap();
        assert_eq!(v.step_count(), 2);
        assert!((v.time_step().0 - 1e-12).abs() < 1e-24);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = read_csv("1.0,2.0\n3.0\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_rejected() {
        assert!(read_csv("not,numbers\n".as_bytes()).is_err());
        assert!(read_csv("".as_bytes()).is_err());
    }

    #[test]
    fn non_positive_or_non_finite_dt_rejected() {
        for bad in ["0", "-5", "nan", "NaN", "inf", "-inf", "infinity"] {
            let text = format!("# pdn-wnv test-vector, dt_ps={bad}\n1e-3\n");
            let err = read_csv(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "dt_ps={bad}");
        }
        // The boundary: a tiny but positive dt is fine.
        let v = read_csv("# pdn-wnv test-vector, dt_ps=1e-3\n1e-3\n".as_bytes()).unwrap();
        assert!(v.time_step().0 > 0.0);
    }

    #[test]
    fn non_finite_samples_rejected() {
        for bad in ["NaN", "nan", "inf", "-inf", "infinity"] {
            let text = format!("1e-3,2e-3\n4e-3,{bad}\n");
            let err = read_csv(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "sample {bad}");
            assert!(err.to_string().starts_with("line 2:"), "{err}");
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# pdn-wnv test-vector, dt_ps=20\n\n# comment\n5e-3\n";
        let v = read_csv(text.as_bytes()).unwrap();
        assert_eq!(v.step_count(), 1);
        assert_eq!(v.load_count(), 1);
        assert!((v.time_step().0 - 20e-12).abs() < 1e-24);
    }
}
