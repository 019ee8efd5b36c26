//! Differential test of the Matrix Market scanner against the reader it
//! replaced: `BufRead::lines`, one `String` per line, then
//! `split_whitespace` and `str::parse`, kept below verbatim as the
//! oracle.
//!
//! Generated files cover `real`, `integer` and `pattern` fields, each
//! `general` and `symmetric`; comment and blank lines between entries;
//! spaces, tabs, VT/FF and CRLF; value tokens with a leading `+`,
//! leading zeros, a sign, an exponent, `-0`, `inf`, `NaN`, 2⁵³ ± 1 and
//! 20 digits; zero, out-of-bounds and overflowing indices; missing
//! values, trailing tokens and a wrong entry count. Both readers must
//! give the same matrix (values compared by `to_bits`) and the same
//! edge list, or the same error line and message.
//!
//! The scanner differs from the oracle on purpose in three ways, each a
//! named `deviation_*` test at the bottom: a failing reader, a byte that
//! is not UTF-8, and non-ASCII whitespace. (A size line claiming more
//! entries than the input holds makes the oracle panic or abort in its
//! up-front allocation, so that case is a unit test in the module.)

use std::io::Read;

use gbtl::Matrix as GMatrix;
use proptest::{run_cases, TestCaseError, TestRng};
use pygb_io::matrix_market::{read_edge_list, read_native, MmError};
use pygb_io::EdgeList;

/// The replaced reader's header and body parsing, verbatim.
mod oracle {
    use std::io::{BufRead, BufReader, Read};

    use gbtl::Matrix as GMatrix;
    use pygb_io::matrix_market::MmError;
    use pygb_io::EdgeList;

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

    fn parse_header(lines: &mut impl Iterator<Item = (usize, String)>) -> Result<Header, MmError> {
        let (lineno, banner) = lines.next().ok_or_else(|| parse_err(1, "empty file"))?;
        let tokens: Vec<&str> = banner.split_whitespace().collect();
        if tokens.len() < 5 || !tokens[0].eq_ignore_ascii_case("%%MatrixMarket") {
            return Err(parse_err(lineno, "missing %%MatrixMarket banner"));
        }
        if !tokens[1].eq_ignore_ascii_case("matrix")
            || !tokens[2].eq_ignore_ascii_case("coordinate")
        {
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

    fn parse_entries(
        header: &Header,
        lines: impl Iterator<Item = (usize, String)>,
    ) -> Result<Vec<(usize, usize, f64)>, MmError> {
        let mut triples = Vec::with_capacity(
            header.nnz
                * if header.symmetry == Symmetry::Symmetric {
                    2
                } else {
                    1
                },
        );
        let mut count = 0usize;
        for (lineno, line) in lines {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('%') {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let i: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(lineno, "bad row index"))?;
            let j: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(lineno, "bad column index"))?;
            if i == 0 || j == 0 || i > header.nrows || j > header.ncols {
                return Err(parse_err(lineno, "index out of declared bounds"));
            }
            let v: f64 = match header.field {
                Field::Pattern => 1.0,
                _ => parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad value"))?,
            };
            triples.push((i - 1, j - 1, v));
            if header.symmetry == Symmetry::Symmetric && i != j {
                triples.push((j - 1, i - 1, v));
            }
            count += 1;
        }
        if count != header.nnz {
            return Err(parse_err(
                0,
                format!("declared {} entries, found {count}", header.nnz),
            ));
        }
        Ok(triples)
    }

    fn numbered_lines(reader: impl Read) -> impl Iterator<Item = (usize, String)> {
        BufReader::new(reader)
            .lines()
            .map_while(|l| l.ok())
            .enumerate()
            .map(|(i, l)| (i + 1, l))
    }

    /// Native typed read: straight into a `gbtl::Matrix<f64>`.
    pub fn read_native(reader: impl Read) -> Result<GMatrix<f64>, MmError> {
        let mut lines = numbered_lines(reader);
        let header = parse_header(&mut lines)?;
        let triples = parse_entries(&header, lines)?;
        Ok(GMatrix::from_triples_dedup_with(
            header.nrows,
            header.ncols,
            triples,
            |_, b| b,
        )?)
    }

    /// Native read into an [`EdgeList`] (square matrices only).
    pub fn read_edge_list(reader: impl Read) -> Result<EdgeList, MmError> {
        let mut lines = numbered_lines(reader);
        let header = parse_header(&mut lines)?;
        if header.nrows != header.ncols {
            return Err(parse_err(0, "edge lists require a square matrix"));
        }
        let edges = parse_entries(&header, lines)?;
        Ok(EdgeList {
            n: header.nrows,
            edges,
        })
    }
}

/// One of `options`, uniformly.
fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

/// True with probability `1 / n`.
fn one_in(rng: &mut TestRng, n: usize) -> bool {
    rng.below(n) == 0
}

/// Whitespace between tokens: mostly one space, sometimes runs of
/// spaces, tabs, VT, FF or a lone CR.
fn gap(rng: &mut TestRng) -> &'static str {
    if one_in(rng, 3) {
        pick(rng, &["  ", "\t", " \t ", "\x0b", "\x0c", "\r", "   "])
    } else {
        " "
    }
}

fn eol(rng: &mut TestRng) -> &'static str {
    if one_in(rng, 4) {
        "\r\n"
    } else {
        "\n"
    }
}

/// A 1-based index token for a dimension of `n`: mostly valid (with an
/// occasional `+` or leading zeros), rarely zero, out of bounds,
/// overflowing or not a number at all.
fn index(rng: &mut TestRng, n: usize) -> String {
    let k = 1 + rng.below(n);
    match rng.below(60) {
        0 => "0".into(),
        1 => (n + 1).to_string(),
        2 => "18446744073709551616".into(),
        3 => pick(rng, &["-1", "+", "++1", "1.0", "x", "0x1", "1e0", "-0"]).into(),
        4..=6 => format!("+{k}"),
        7..=9 => format!("00{k}"),
        _ => k.to_string(),
    }
}

/// A value token: integral weights half the time (the digit-loop
/// path), otherwise a shape `str::parse::<f64>` has an opinion on.
fn value(rng: &mut TestRng) -> String {
    if one_in(rng, 2) {
        return rng.below(1000).to_string();
    }
    pick(
        rng,
        &[
            "+5",
            "007",
            "000000000000000000042",
            "-3",
            "-0",
            "0",
            "+0",
            "1e3",
            "2.5e-3",
            "-1.25E+2",
            "0.1",
            ".5",
            "5.",
            "inf",
            "-inf",
            "+infinity",
            "NaN",
            "nan",
            "9007199254740991",
            "9007199254740992",
            "9007199254740993",
            "12345678901234567890",
            "999999999999999",
            "1000000000000000",
            "123456789012345",
            "1234567890123456",
            "1e400",
            "4.9e-324",
            "1_0",
            "0x10",
            "--1",
            "1e",
            "e5",
            "+",
            "-",
        ],
    )
    .into()
}

/// A generated Matrix Market file, mostly well formed.
fn mm_file(rng: &mut TestRng) -> String {
    let field = pick(rng, &["real", "integer", "pattern", "REAL", "Pattern"]);
    let symmetry = pick(rng, &["general", "symmetric", "Symmetric"]);
    let nrows = 1 + rng.below(6);
    let ncols = if symmetry.eq_ignore_ascii_case("symmetric") || one_in(rng, 2) {
        nrows
    } else {
        1 + rng.below(6)
    };
    let mut out = format!("%%MatrixMarket matrix coordinate {field} {symmetry}");
    out.push_str(eol(rng));
    if one_in(rng, 2) {
        out.push_str("% generated");
        out.push_str(eol(rng));
    }
    let entries = rng.below(14);
    let declared = match rng.below(20) {
        0 => entries + 1,
        1 if entries > 0 => entries - 1,
        _ => entries,
    };
    out.push_str(&format!("{nrows}{}{ncols}{}{declared}", gap(rng), gap(rng)));
    out.push_str(eol(rng));
    let pattern = field.eq_ignore_ascii_case("pattern");
    for _ in 0..entries {
        // A blank or comment line before some entries.
        if rng.below(8) < 2 {
            out.push_str(pick(
                rng,
                &["", " ", "\t", "\r", "%", "% comment 1 2 3", "  %x", "%%"],
            ));
            out.push_str(eol(rng));
        }
        if one_in(rng, 6) {
            out.push_str(pick(rng, &[" ", "\t", "  "]));
        }
        out.push_str(&index(rng, nrows));
        out.push_str(gap(rng));
        out.push_str(&index(rng, ncols));
        // Pattern files sometimes carry a value anyway; other files
        // rarely miss theirs.
        if (!pattern && !one_in(rng, 40)) || (pattern && one_in(rng, 8)) {
            out.push_str(gap(rng));
            out.push_str(&value(rng));
        }
        if one_in(rng, 10) {
            out.push_str(gap(rng));
            out.push_str(pick(rng, &["junk", "1", "%", "7 8 9"]));
        }
        if one_in(rng, 6) {
            out.push_str(pick(rng, &[" ", "\t", "\r"]));
        }
        out.push_str(eol(rng));
    }
    if one_in(rng, 4) {
        out.pop();
    }
    out
}

fn matrix_bits(m: &GMatrix<f64>) -> Vec<(usize, usize, u64)> {
    m.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect()
}

fn edges_bits(e: &EdgeList) -> (usize, Vec<(usize, usize, u64)>) {
    let edges = e.edges.iter().map(|&(i, j, v)| (i, j, v.to_bits()));
    (e.n, edges.collect())
}

/// An error as `(variant, line, message)`, for comparison.
fn error_key(e: MmError) -> (&'static str, usize, String) {
    match e {
        MmError::Io(e) => ("io", 0, e.to_string()),
        MmError::Parse { line, message } => ("parse", line, message),
        MmError::Graphblas(e) => ("graphblas", 0, e.to_string()),
    }
}

fn same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    text: &str,
    scanner: Result<T, MmError>,
    oracle: Result<T, MmError>,
) -> Result<(), TestCaseError> {
    let scanner = scanner.map_err(error_key);
    let oracle = oracle.map_err(error_key);
    if scanner == oracle {
        Ok(())
    } else {
        Err(TestCaseError::fail(format!(
            "{what} differs on {text:?}:\n scanner {scanner:?}\n oracle  {oracle:?}"
        )))
    }
}

#[test]
fn scanner_matches_the_line_reader() {
    let mut outcomes = [0usize; 2];
    run_cases("scanner_matches_the_line_reader", |rng| {
        for _ in 0..32 {
            let text = mm_file(rng);
            let scanner = read_native(text.as_bytes()).map(|m| matrix_bits(&m));
            outcomes[usize::from(scanner.is_ok())] += 1;
            let oracle = oracle::read_native(text.as_bytes()).map(|m| matrix_bits(&m));
            same("read_native", &text, scanner, oracle)?;
            let scanner = read_edge_list(text.as_bytes()).map(|e| edges_bits(&e));
            let oracle = oracle::read_edge_list(text.as_bytes()).map(|e| edges_bits(&e));
            same("read_edge_list", &text, scanner, oracle)?;
        }
        Ok(())
    });
    // Both outcomes must be exercised: matrices and errors.
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}

/// Every value token the generator knows, alone in a one-entry file:
/// the same bits as `str::parse::<f64>`, or `bad value` on line 3 where
/// that fails.
#[test]
fn values_are_bit_identical_to_str_parse() {
    let mut rng = TestRng::from_seed(7);
    for _ in 0..2000 {
        let v = value(&mut rng);
        let text = format!("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 {v}\n");
        let expected = v.parse::<f64>().ok().map(f64::to_bits);
        match read_native(text.as_bytes()) {
            Ok(m) => assert_eq!(m.get(0, 0).map(f64::to_bits), expected, "{v:?}"),
            Err(MmError::Parse { line: 3, message }) if message == "bad value" => {
                assert_eq!(expected, None, "{v:?}")
            }
            Err(e) => panic!("{v:?}: {e}"),
        }
    }
}

const FOUR_ENTRIES: &str = "%%MatrixMarket matrix coordinate real general\n\
    % line 2\n\
    3 3 4\n\
    1 1 1\n\
    2 2 2\n\
    3 3 3\n\
    1 3 4\n";

/// A reader that hands over `left` bytes, then fails.
struct FailAfter<'a> {
    data: &'a [u8],
    left: usize,
}

impl Read for FailAfter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.left == 0 {
            return Err(std::io::Error::other("disk on fire"));
        }
        let n = buf.len().min(self.left).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        self.left -= n;
        Ok(n)
    }
}

/// Deviation 1: the oracle's `map_while(|l| l.ok())` ends the input at
/// a read error and then reports a count mismatch; the scanner reports
/// the I/O error.
#[test]
fn deviation_read_error_is_io() {
    // 70 bytes: the header, the size line and the first entry.
    let reader = || FailAfter {
        data: FOUR_ENTRIES.as_bytes(),
        left: 70,
    };
    match oracle::read_native(reader()) {
        Err(MmError::Parse { line: 0, message }) => {
            assert_eq!(message, "declared 4 entries, found 1")
        }
        other => panic!("oracle: {other:?}"),
    }
    match read_native(reader()) {
        Err(MmError::Io(e)) => assert_eq!(e.to_string(), "disk on fire"),
        other => panic!("scanner: {other:?}"),
    }
}

/// Deviation 2: a line that is not UTF-8 silently ends the oracle's
/// input; the scanner names the line.
#[test]
fn deviation_invalid_utf8_is_a_parse_error_on_its_line() {
    let mut bytes = FOUR_ENTRIES.as_bytes().to_vec();
    let line5 = FOUR_ENTRIES.match_indices('\n').nth(3).unwrap().0 + 1;
    bytes.insert(line5 + 3, 0xFF); // "2 2\xFF 2"
    match oracle::read_native(bytes.as_slice()) {
        Err(MmError::Parse { line: 0, message }) => {
            assert_eq!(message, "declared 4 entries, found 1")
        }
        other => panic!("oracle: {other:?}"),
    }
    match read_native(bytes.as_slice()) {
        Err(MmError::Parse { line: 5, message }) => assert_eq!(message, "invalid UTF-8"),
        other => panic!("scanner: {other:?}"),
    }
}

/// Deviation 3: `split_whitespace` splits on non-ASCII whitespace; the
/// scanner splits on ASCII whitespace only, so U+00A0 or U+3000 stays
/// inside a token.
#[test]
fn deviation_non_ascii_whitespace_does_not_split() {
    for space in ['\u{a0}', '\u{2003}', '\u{3000}'] {
        let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1{space}2 5\n");
        let m = oracle::read_native(text.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), Some(5.0));
        match read_native(text.as_bytes()) {
            Err(MmError::Parse { line: 3, message }) => assert_eq!(message, "bad row index"),
            other => panic!("scanner, {space:?}: {other:?}"),
        }
    }
}
