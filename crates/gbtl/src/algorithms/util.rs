//! Algorithm utilities — GBTL's `normalize_rows` (used by PageRank,
//! Fig. 8 line 16).

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Divide every stored element by its row's sum, making each non-empty
/// row sum to 1 — the row-stochastic normalization PageRank needs.
/// Rows with a zero sum are left untouched (integer division by zero
/// would zero them; GBTL divides by the sum as-is for floats).
pub fn normalize_rows<T: Scalar>(m: &mut Matrix<T>) {
    // The pattern stays: only the values are rewritten, in place.
    m.update_row_values(|vals| {
        let sum = vals.iter().fold(T::zero(), |acc, &v| acc.s_add(v));
        if sum != T::zero() {
            for v in vals {
                *v = v.s_div(sum);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let mut m = Matrix::from_triples(
            2,
            3,
            [
                (0usize, 0usize, 1.0f64),
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 0, 5.0),
            ],
        )
        .unwrap();
        normalize_rows(&mut m);
        assert!((m.get(0, 0).unwrap() - 0.25).abs() < 1e-12);
        assert!((m.get(0, 2).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(m.get(1, 0), Some(1.0));
    }

    #[test]
    fn empty_rows_unchanged() {
        let mut m = Matrix::from_triples(3, 3, [(0usize, 0usize, 2.0f64)]).unwrap();
        normalize_rows(&mut m);
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.row_nvals(1), 0);
        assert!(m.is_valid());
    }

    /// The row-by-row rebuild `normalize_rows` used to run, kept as the
    /// oracle for the in-place rewrite.
    fn normalize_by_rebuild(m: &Matrix<f64>) -> Matrix<f64> {
        let mut triples = Vec::new();
        for i in 0..m.nrows() {
            let (cols, vals) = m.row(i);
            let sum = vals.iter().fold(0.0, |acc, &v| acc.s_add(v));
            for (&j, &v) in cols.iter().zip(vals) {
                triples.push((i, j, if sum == 0.0 { v } else { v.s_div(sum) }));
            }
        }
        Matrix::from_triples(m.nrows(), m.ncols(), triples).unwrap()
    }

    /// Zero-sum rows (all stored zeros, `-0.0`, cancelling values),
    /// stored zeros beside nonzeros, an empty row and a NaN sum come out
    /// bit for bit as the rebuild left them, pattern included.
    #[test]
    fn in_place_matches_the_rebuild_bit_for_bit() {
        let m = Matrix::from_triples(
            6,
            4,
            [
                (0usize, 0usize, 0.0f64),
                (0, 3, 0.0),
                (1, 1, -0.0),
                (1, 2, 0.0),
                (2, 0, 2.5),
                (2, 2, -2.5),
                (3, 0, 0.0),
                (3, 1, 3.0),
                (3, 3, 0.0),
                (5, 0, f64::NAN),
                (5, 1, 1.0),
            ],
        )
        .unwrap();
        let want = normalize_by_rebuild(&m);
        let mut got = m.clone();
        normalize_rows(&mut got);
        assert_eq!(got.nvals(), 11);
        let bits =
            |m: &Matrix<f64>| -> Vec<_> { m.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect() };
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got.get(3, 1), Some(1.0));
        assert_eq!(got.get(3, 3), Some(0.0));
    }

    #[test]
    fn zero_sum_row_untouched() {
        let mut m = Matrix::from_triples(1, 2, [(0usize, 0usize, 1.0f64), (0, 1, -1.0)]).unwrap();
        normalize_rows(&mut m);
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(0, 1), Some(-1.0));
    }
}
