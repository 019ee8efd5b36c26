//! Matrix Market coordinate files — the "read a matrix from a file on
//! disk" leg of Fig. 11.
//!
//! Two read paths exist on purpose:
//!
//! * [`read_native`] parses straight into a typed `gbtl::Matrix<f64>` —
//!   the C++ side of Fig. 11 ("C++ is much faster at this operation").
//! * [`read_interpreted`] mimics the Python side: every token becomes a
//!   separately heap-boxed object in Python-style lists (see
//!   [`crate::interpreted`]), then the container is built through
//!   per-element dynamic calls.
//!
//! Supported header: `%%MatrixMarket matrix coordinate
//! {real|integer|pattern} {general|symmetric}`. Indices are 1-based in
//! the file, 0-based in memory.
//!
//! **One scanner.** Every reader takes its input the same way: read
//! once into one byte buffer, check it is UTF-8, parse the two header
//! lines, then walk the body in place — no per-line `String`, tokens
//! split on ASCII whitespace, indices through a checked digit loop that
//! accepts a leading `+` as `usize::from_str` does. The buffer is
//! dropped before the matrix is assembled. Errors carry the 1-based
//! line they were found on.
//!
//! **Values are bit-identical to `str::parse::<f64>`.** A token of at
//! most 15 plain digits is below 2⁵³, so a digit loop is exact; every
//! other token (signs, `-0`, fractions, exponents, `inf`/`NaN`, 16 or
//! more digits) goes to `str::parse::<f64>` on its own slice.
//!
//! **Where this differs from a `BufRead::lines` + `split_whitespace`
//! reader** (`crates/io/tests/mm_scanner_oracle.rs` names each case):
//! a failing reader is [`MmError::Io`] and a byte that is not UTF-8 is
//! a parse error on its line, where such a reader ends the input
//! silently there; and non-ASCII whitespace (U+00A0, U+3000, …) does
//! not separate tokens. A size line claiming more entries than the
//! input can hold is a count error, not an allocation that overflows
//! or aborts.

// `REGISTER … MM` runs this reader on a serve worker: no panicking
// unwrap/expect on input-driven paths (clippy.toml lists them).
#![warn(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::io::{Read, Write};

use gbtl::{GblasError, Matrix as GMatrix};
use pygb::{DType, Matrix};

use crate::edge_list::EdgeList;

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed header or body.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Entries were inconsistent with the declared shape.
    Graphblas(GblasError),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            MmError::Graphblas(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

impl From<GblasError> for MmError {
    fn from(e: GblasError) -> Self {
        MmError::Graphblas(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> MmError {
    MmError::Parse {
        line,
        message: message.into(),
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Symmetry {
    General,
    Symmetric,
}

struct Header {
    field: Field,
    symmetry: Symmetry,
    nrows: usize,
    ncols: usize,
    nnz: usize,
}

fn parse_header<'a>(lines: &mut impl Iterator<Item = (usize, &'a str)>) -> Result<Header, MmError> {
    let (lineno, banner) = lines.next().ok_or_else(|| parse_err(1, "empty file"))?;
    let tokens: Vec<&str> = banner.split_whitespace().collect();
    if tokens.len() < 5 || !tokens[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_err(lineno, "missing %%MatrixMarket banner"));
    }
    if !tokens[1].eq_ignore_ascii_case("matrix") || !tokens[2].eq_ignore_ascii_case("coordinate") {
        return Err(parse_err(
            lineno,
            "only `matrix coordinate` files are supported",
        ));
    }
    let field = match tokens[3].to_ascii_lowercase().as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(parse_err(lineno, format!("unsupported field `{other}`"))),
    };
    let symmetry = match tokens[4].to_ascii_lowercase().as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => return Err(parse_err(lineno, format!("unsupported symmetry `{other}`"))),
    };
    // Skip comments, find the size line.
    for (lineno, line) in lines.by_ref() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = trimmed.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(parse_err(lineno, "size line must be `rows cols nnz`"));
        }
        let parse = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| parse_err(lineno, format!("bad integer `{s}`")))
        };
        return Ok(Header {
            field,
            symmetry,
            nrows: parse(parts[0])?,
            ncols: parse(parts[1])?,
            nnz: parse(parts[2])?,
        });
    }
    Err(parse_err(0, "missing size line"))
}

/// The ASCII members of Unicode `White_Space` (tab, LF, VT, FF, CR,
/// space): what `str::split_whitespace` splits ASCII text on.
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// A 1-based index token, accepting what `usize::from_str` accepts: an
/// optional `+`, then at least one digit, without overflow.
fn parse_index(tok: &[u8]) -> Option<usize> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(usize::from(d))
    })
}

/// A value token, bit-identical to `str::parse::<f64>`. Up to 15 plain
/// digits is below 2⁵³ and converts exactly; anything else parses as
/// text.
fn parse_value(tok: &[u8]) -> Option<f64> {
    if !tok.is_empty() && tok.len() <= 15 && tok.iter().all(u8::is_ascii_digit) {
        let n = tok.iter().fold(0u64, |n, &b| n * 10 + u64::from(b - b'0'));
        return Some(n as f64);
    }
    std::str::from_utf8(tok).ok()?.parse().ok()
}

/// The input as text. A byte that is not UTF-8 is a parse error on the
/// line that holds it.
fn as_text(buf: &[u8]) -> Result<&str, MmError> {
    std::str::from_utf8(buf).map_err(|e| {
        let newlines = buf[..e.valid_up_to()].iter().filter(|&&b| b == b'\n');
        parse_err(newlines.count() + 1, "invalid UTF-8")
    })
}

/// A 0-based `(row, col, value)` entry.
type Triple = (usize, usize, f64);

/// A cursor over the whole input text. As an iterator it yields whole
/// 1-based lines without their `\n` (what [`parse_header`] reads); the
/// body is then scanned token by token in place.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based number of the line `pos` is on.
    line: usize,
}

impl<'a> Iterator for Cursor<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let rest = self.text.get(self.pos..).filter(|r| !r.is_empty())?;
        let line = rest.split_once('\n').map_or(rest, |(line, _)| line);
        let lineno = self.line;
        self.skip_line();
        Some((lineno, line))
    }
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            line: 1,
        }
    }

    /// The next token on the current line, split on [`is_space`];
    /// `None` at the end of the line.
    fn token(&mut self) -> Option<&'a [u8]> {
        let b = self.text.as_bytes();
        let mut p = self.pos;
        while let Some(&c) = b.get(p) {
            if c == b'\n' || !is_space(c) {
                break;
            }
            p += 1;
        }
        let start = p;
        while let Some(&c) = b.get(p) {
            if is_space(c) {
                break;
            }
            p += 1;
        }
        self.pos = p;
        b.get(start..p).filter(|t| !t.is_empty())
    }

    /// Moves past the current line's `\n`, ignoring what is left of it.
    fn skip_line(&mut self) {
        let b = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        match b.iter().position(|&c| c == b'\n') {
            Some(n) => {
                self.pos += n + 1;
                self.line += 1;
            }
            None => self.pos += b.len(),
        }
    }

    /// Scans the body after the size line into 0-based triples,
    /// mirroring the off-diagonal entries of a symmetric file.
    fn entries(&mut self, header: &Header) -> Result<Vec<Triple>, MmError> {
        let symmetric = header.symmetry == Symmetry::Symmetric;
        // An entry line takes at least 4 bytes (`1 1` and a newline), so
        // the input bounds the reservation whatever the size line claims.
        let reserve = header.nnz.min(self.text.len() / 4 + 1);
        let mut triples = Vec::with_capacity(if symmetric { 2 * reserve } else { reserve });
        let mut count = 0usize;
        while self.pos < self.text.len() {
            let lineno = self.line;
            let i = match self.token() {
                Some(t) if !t.starts_with(b"%") => {
                    parse_index(t).ok_or_else(|| parse_err(lineno, "bad row index"))?
                }
                // A blank or comment line.
                _ => {
                    self.skip_line();
                    continue;
                }
            };
            let j = self
                .token()
                .and_then(parse_index)
                .ok_or_else(|| parse_err(lineno, "bad column index"))?;
            if i == 0 || j == 0 || i > header.nrows || j > header.ncols {
                return Err(parse_err(lineno, "index out of declared bounds"));
            }
            let v = match header.field {
                Field::Pattern => 1.0,
                _ => self
                    .token()
                    .and_then(parse_value)
                    .ok_or_else(|| parse_err(lineno, "bad value"))?,
            };
            triples.push((i - 1, j - 1, v));
            if symmetric && i != j {
                triples.push((j - 1, i - 1, v));
            }
            count += 1;
            self.skip_line();
        }
        if count != header.nnz {
            return Err(parse_err(
                0,
                format!("declared {} entries, found {count}", header.nnz),
            ));
        }
        Ok(triples)
    }
}

/// Reads the whole input once and scans it: header, then body. When
/// `square_only` is set, a non-square header is that error before the
/// body is read. The byte buffer is dropped on return, so no caller
/// holds it while assembling a matrix.
fn scan(
    mut reader: impl Read,
    square_only: Option<&str>,
) -> Result<(Header, Vec<Triple>), MmError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    let mut cursor = Cursor::new(as_text(&buf)?);
    let header = parse_header(&mut cursor)?;
    if let Some(message) = square_only {
        if header.nrows != header.ncols {
            return Err(parse_err(0, message));
        }
    }
    let triples = cursor.entries(&header)?;
    Ok((header, triples))
}

/// Native typed read: straight into a `gbtl::Matrix<f64>`. A repeated
/// coordinate keeps its last value.
pub fn read_native(reader: impl Read) -> Result<GMatrix<f64>, MmError> {
    let (header, triples) = scan(reader, None)?;
    Ok(GMatrix::from_triples_dedup_with(
        header.nrows,
        header.ncols,
        triples,
        |_, b| b,
    )?)
}

/// Native read into an [`EdgeList`] (square matrices only).
pub fn read_edge_list(reader: impl Read) -> Result<EdgeList, MmError> {
    let (header, edges) = scan(reader, Some("edge lists require a square matrix"))?;
    Ok(EdgeList {
        n: header.nrows,
        edges,
    })
}

/// Interpreted read: every parsed token becomes a separate heap-boxed
/// object in Python-style lists (see [`crate::interpreted`]), then the
/// container is built through per-element dynamic calls — the Python
/// read path of Fig. 11.
pub fn read_interpreted(reader: impl Read, dtype: DType) -> Result<Matrix, MmError> {
    let (header, triples) = scan(reader, Some("interpreted path expects a square matrix"))?;
    // The "three Python lists of PyObjects" intermediate.
    let coo = crate::interpreted::PyCoo::from_edges(header.nrows, &triples);
    coo.to_matrix(dtype)
        .map_err(|e| parse_err(0, e.to_string()))
}

/// Direct native load into a DSL container — Section VIII future work,
/// implemented: "wrapping a C++ function to directly load a matrix
/// instead of first loading into Python lists would be trivial." The
/// typed parser runs end to end and the result is moved (zero-copy)
/// into a `pygb::Matrix`, skipping the boxed intermediate entirely.
pub fn read_native_pygb(reader: impl Read, dtype: DType) -> Result<Matrix, MmError> {
    let typed = read_native(reader)?;
    let m = Matrix::from_typed(typed);
    Ok(if dtype == DType::Fp64 {
        m
    } else {
        m.cast(dtype)
    })
}

/// Write a typed matrix as `matrix coordinate real general`.
pub fn write_native(matrix: &GMatrix<f64>, mut writer: impl Write) -> Result<(), MmError> {
    let mut out = String::with_capacity(64 + matrix.nvals() * 24);
    out.push_str("%%MatrixMarket matrix coordinate real general\n");
    let _ = writeln!(
        out,
        "{} {} {}",
        matrix.nrows(),
        matrix.ncols(),
        matrix.nvals()
    );
    for (i, j, v) in matrix.iter() {
        let _ = writeln!(out, "{} {} {}", i + 1, j + 1, v);
    }
    writer.write_all(out.as_bytes())?;
    Ok(())
}

/// Read a Matrix Market file by path (native typed path).
pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<GMatrix<f64>, MmError> {
    read_native(std::fs::File::open(path)?)
}

/// Read a Matrix Market file by path straight into a DSL container.
pub fn read_file_pygb(path: impl AsRef<std::path::Path>, dtype: DType) -> Result<Matrix, MmError> {
    read_native_pygb(std::fs::File::open(path)?, dtype)
}

/// Write a typed matrix to a Matrix Market file.
pub fn write_file(matrix: &GMatrix<f64>, path: impl AsRef<std::path::Path>) -> Result<(), MmError> {
    write_native(matrix, std::fs::File::create(path)?)
}

/// Serialize an edge list to Matrix Market text (for bench file-read
/// workloads).
pub fn to_string(edges: &EdgeList) -> String {
    let mut out = String::with_capacity(64 + edges.nnz() * 24);
    out.push_str("%%MatrixMarket matrix coordinate real general\n");
    let _ = writeln!(out, "{} {} {}", edges.n, edges.n, edges.nnz());
    for &(s, d, w) in &edges.edges {
        let _ = writeln!(out, "{} {} {}", s + 1, d + 1, w);
    }
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    const SAMPLE: &str = "%%MatrixMarket matrix coordinate real general\n\
        % a comment\n\
        3 3 3\n\
        1 2 1.5\n\
        2 3 -2.0\n\
        3 1 0.25\n";

    #[test]
    fn read_native_basic() {
        let m = read_native(SAMPLE.as_bytes()).unwrap();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.nvals(), 3);
        assert_eq!(m.get(0, 1), Some(1.5));
        assert_eq!(m.get(1, 2), Some(-2.0));
        assert_eq!(m.get(2, 0), Some(0.25));
    }

    #[test]
    fn symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
            2 2 2\n\
            1 1 5\n\
            2 1 7\n";
        let m = read_native(text.as_bytes()).unwrap();
        assert_eq!(m.nvals(), 3);
        assert_eq!(m.get(0, 1), Some(7.0));
        assert_eq!(m.get(1, 0), Some(7.0));
        assert_eq!(m.get(0, 0), Some(5.0)); // diagonal not duplicated
    }

    #[test]
    fn pattern_files_give_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
            2 2 1\n\
            1 2\n";
        let m = read_native(text.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), Some(1.0));
    }

    #[test]
    fn interpreted_matches_native() {
        let native = read_native(SAMPLE.as_bytes()).unwrap();
        let interp = read_interpreted(SAMPLE.as_bytes(), DType::Fp64).unwrap();
        assert_eq!(interp.nvals(), native.nvals());
        for (i, j, v) in native.iter() {
            assert_eq!(interp.get(i, j).unwrap().as_f64(), v);
        }
    }

    #[test]
    fn roundtrip_through_writer() {
        let m = read_native(SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_native(&m, &mut buf).unwrap();
        let back = read_native(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn edge_list_roundtrip() {
        let e = crate::generators::erdos_renyi(10, 20, 5);
        let text = to_string(&e);
        let back = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(back.n, 10);
        assert_eq!(back.nnz(), 20);
        let m1: GMatrix<f64> = e.to_gbtl();
        let m2: GMatrix<f64> = back.to_gbtl();
        assert_eq!(m1, m2);
    }

    #[test]
    fn file_roundtrip_by_path() {
        let dir = std::env::temp_dir().join(format!("pygb-mm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.mtx");

        let m = read_native(SAMPLE.as_bytes()).unwrap();
        write_file(&m, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back, m);

        let dsl = read_file_pygb(&path, DType::Fp64).unwrap();
        assert_eq!(dsl.nvals(), m.nvals());
        assert_eq!(dsl.get(0, 1).unwrap().as_f64(), 1.5);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_file("/nonexistent/definitely/missing.mtx").unwrap_err();
        assert!(matches!(err, MmError::Io(_)));
    }

    #[test]
    fn error_cases() {
        assert!(read_native("".as_bytes()).is_err());
        assert!(read_native("%%MatrixMarket array real general\n".as_bytes()).is_err());
        let bad_count = "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1\n";
        assert!(read_native(bad_count.as_bytes()).is_err());
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n";
        assert!(read_native(oob.as_bytes()).is_err());
        let zero_idx = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n";
        assert!(read_native(zero_idx.as_bytes()).is_err());
    }

    #[test]
    fn size_line_claim_does_not_size_the_reservation() {
        let huge =
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 18446744073709551615\n1 1 1\n";
        match read_native(huge.as_bytes()) {
            Err(MmError::Parse { line: 0, message }) => {
                assert_eq!(message, "declared 18446744073709551615 entries, found 1")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn repeated_coordinates_keep_the_last_value() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
            2 2 4\n\
            1 2 1\n\
            2 1 5\n\
            1 2 2\n\
            1 2 3\n";
        let m = read_native(text.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), Some(3.0));
        let dsl = read_native_pygb(text.as_bytes(), DType::Fp64).unwrap();
        assert_eq!(dsl.get(0, 1).unwrap().as_f64(), 3.0);
    }
}
