//! The one reader and writer of the workspace's binary artifacts.
//!
//! Cache entries (`PDNWNVC2`), training checkpoints (`PDNCKPT1`), predictor
//! bundles (`PDNWNV01`) and the weight files inside them (`PDNNWT01`) are
//! each an 8-byte magic followed by little-endian scalars and runs. The
//! sealed formats (cache entries, checkpoints) end with a [`digest_bytes`]
//! seal over everything after the magic. [`Writer`] appends the fields and
//! [`Reader`] takes them back under one set of rules:
//!
//! * a run of `count` values is read only after `count × size` is checked
//!   against the bytes left, so a decode allocates no more than its input
//!   holds, whatever its header claims (the seal is not cryptographic, so
//!   a crafted header can pass it);
//! * a tensor shape has a rank from 1 to 8 and a product that fits `usize`;
//! * bytes after the record are an error ([`Reader::finish`]);
//! * every failure is an `InvalidData` error whose text names the artifact;
//!   a short input is corrupt data, never an EOF a caller might retry.

use crate::fsio::digest_bytes;
use std::io;

const MAX_RANK: usize = 8;

/// An [`io::ErrorKind::InvalidData`] error with the given text.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one artifact's fields from a byte slice, front to back. Every
/// method fails with `InvalidData` when too few bytes are left for it.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Opens an unsealed record that must start with `magic`; `what` names
    /// the artifact in every error.
    pub fn new(bytes: &'a [u8], magic: &[u8; 8], what: &'static str) -> io::Result<Reader<'a>> {
        match bytes.strip_prefix(magic) {
            Some(rest) => Ok(Reader { rest, what }),
            None => Err(invalid(format!("bad {what} magic"))),
        }
    }

    /// Opens a sealed record (magic, fields, seal) and checks the seal; the
    /// reader then holds the fields alone.
    pub fn sealed(bytes: &'a [u8], magic: &[u8; 8], what: &'static str) -> io::Result<Reader<'a>> {
        let mut r = Reader::new(bytes, magic, what)?;
        let truncated = || invalid(format!("truncated {what}"));
        let (fields, seal) = r.rest.split_last_chunk().ok_or_else(truncated)?;
        if digest_bytes(fields) != u64::from_le_bytes(*seal) {
            return Err(invalid(format!("{what} integrity digest mismatch (torn or corrupt file)")));
        }
        r.rest = fields;
        Ok(r)
    }

    /// The next `N` bytes as they are.
    pub fn bytes<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let Some((head, rest)) = self.rest.split_first_chunk() else {
            return Err(invalid(format!("truncated {}", self.what)));
        };
        self.rest = rest;
        Ok(*head)
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        self.bytes().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        self.bytes().map(u64::from_le_bytes)
    }

    /// The next `f64`.
    pub fn f64(&mut self) -> io::Result<f64> {
        self.bytes().map(f64::from_le_bytes)
    }

    /// Checks, without reading them, that `count` values of `size` bytes fit
    /// in the bytes left; if not, the error is `<field> longer than the <artifact>`.
    pub fn check_run(&self, count: usize, size: usize, field: &str) -> io::Result<()> {
        match count.checked_mul(size) {
            Some(len) if len <= self.rest.len() => Ok(()),
            _ => Err(invalid(format!("{field} longer than the {}", self.what))),
        }
    }

    fn run<T, const N: usize>(
        &mut self,
        count: usize,
        field: &str,
        decode: fn([u8; N]) -> T,
    ) -> io::Result<Vec<T>> {
        self.check_run(count, N, field)?;
        let (run, rest) = self.rest.split_at(count * N);
        self.rest = rest;
        Ok(run.as_chunks().0.iter().map(|&b| decode(b)).collect())
    }

    /// The next `count` `f32`s, after [`Reader::check_run`].
    pub fn f32s(&mut self, count: usize, field: &str) -> io::Result<Vec<f32>> {
        self.run(count, field, f32::from_le_bytes)
    }

    /// The next `count` `f64`s, after [`Reader::check_run`].
    pub fn f64s(&mut self, count: usize, field: &str) -> io::Result<Vec<f64>> {
        self.run(count, field, f64::from_le_bytes)
    }

    /// The next `count` `u64`s, after [`Reader::check_run`].
    pub fn u64s(&mut self, count: usize, field: &str) -> io::Result<Vec<u64>> {
        self.run(count, field, u64::from_le_bytes)
    }

    /// A tensor shape: a `u32` rank from 1 to 8, then one `u32` per
    /// dimension, whose product must fit in `usize`.
    pub fn shape(&mut self) -> io::Result<Vec<usize>> {
        let rank = self.u32()? as usize;
        if rank == 0 || rank > MAX_RANK {
            return Err(invalid(format!("implausible tensor rank {rank} in the {}", self.what)));
        }
        let shape: Vec<usize> =
            (0..rank).map(|_| self.u32().map(|d| d as usize)).collect::<io::Result<_>>()?;
        match shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) {
            Some(_) => Ok(shape),
            None => Err(invalid(format!("tensor shape overflows in the {}", self.what))),
        }
    }

    /// Hands over the unread bytes, for a nested record that runs to the end.
    pub fn into_rest(self) -> &'a [u8] {
        self.rest
    }

    /// Ends the record: a byte left unread is an error.
    pub fn finish(self) -> io::Result<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(invalid(format!("{n} trailing bytes after the {}", self.what))),
        }
    }
}

/// Appends one artifact's fields to a buffer, in the layout [`Reader`]
/// takes them back. `Writer::default()` starts an empty buffer, for a
/// record nested in another.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a record with its magic.
    pub fn new(magic: &[u8; 8]) -> Writer {
        Writer { buf: magic.to_vec() }
    }

    /// Appends bytes as they are.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a run of `f32`s; its count, if any, is the caller's field.
    pub fn f32s(&mut self, vs: &[f32]) {
        vs.iter().for_each(|v| self.bytes(&v.to_le_bytes()));
    }

    /// Appends a tensor shape as [`Reader::shape`] reads it.
    pub fn shape(&mut self, shape: &[usize]) {
        self.u32(shape.len() as u32);
        shape.iter().for_each(|&d| self.u32(d as u32));
    }

    /// The record's bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The record's bytes, sealed over everything after the magic.
    pub fn seal(mut self) -> Vec<u8> {
        self.u64(digest_bytes(&self.buf[8..]));
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TESTREC1";

    fn open(bytes: &[u8]) -> Reader<'_> {
        Reader::new(bytes, MAGIC, "record").unwrap()
    }

    #[test]
    fn fields_round_trip_and_every_failure_names_the_artifact() {
        let mut w = Writer::new(MAGIC);
        w.u32(0x0403_0201);
        w.u64(u64::MAX - 1);
        w.f64(f64::MIN_POSITIVE);
        w.bytes(&[7; 3]);
        w.shape(&[2, 3]);
        w.f32s(&[0.25; 6]);
        let mut sealed = w.seal();
        let end = sealed.len() - 8;
        assert_eq!(&sealed[..12], b"TESTREC1\x01\x02\x03\x04");
        assert_eq!(sealed[end..], digest_bytes(&sealed[8..end]).to_le_bytes());
        for mut r in [open(&sealed[..end]), Reader::sealed(&sealed, MAGIC, "record").unwrap()] {
            assert_eq!((r.u32().unwrap(), r.u64().unwrap()), (0x0403_0201, u64::MAX - 1));
            assert_eq!((r.f64().unwrap(), r.bytes().unwrap()), (f64::MIN_POSITIVE, [7; 3]));
            assert_eq!(r.shape().unwrap(), [2, 3]);
            let err = r.f32s(7, "run").unwrap_err();
            assert_eq!(err.to_string(), "run longer than the record");
            assert_eq!(r.f32s(6, "run").unwrap(), [0.25; 6]);
            r.finish().unwrap();
        }
        let mut errors = vec![
            Reader::new(b"TESTREC", MAGIC, "record").unwrap_err(),
            Reader::new(b"TESTREC2", MAGIC, "record").unwrap_err(),
            Reader::sealed(&sealed[..15], MAGIC, "record").unwrap_err(),
            open(&sealed[..10]).u32().unwrap_err(),
            open(&sealed).u64s(usize::MAX, "run").unwrap_err(),
            open(&sealed).finish().unwrap_err(),
        ];
        for dims in [vec![0], vec![9], vec![3, 1 << 31, 1 << 31, 1 << 31]] {
            let words: Vec<u8> = dims.iter().flat_map(|w: &u32| w.to_le_bytes()).collect();
            errors.push(open(&[&MAGIC[..], &words].concat()).shape().unwrap_err());
        }
        sealed[12] ^= 1;
        errors.push(Reader::sealed(&sealed, MAGIC, "record").unwrap_err());
        for e in errors {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains("record"), "{e}");
        }
    }
}
