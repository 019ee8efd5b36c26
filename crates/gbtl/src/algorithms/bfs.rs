//! Breadth-first search — the paper's running example (Figs. 1 and 2).
//!
//! Direct transcription of Fig. 2c:
//!
//! ```text
//! depth = 0
//! while frontier.nvals() > 0:
//!     depth += 1
//!     assign(levels, frontier, NoAccumulate, depth, AllIndices, false)
//!     mxv(frontier, complement(levels), NoAccumulate,
//!         LogicalSemiring, transpose(graph), frontier, true)
//! ```

use crate::error::Result;
use crate::index::{IndexType, Indices};
use crate::matrix::Matrix;
use crate::operations::{assign_vector_constant, mxv};
use crate::ops::accum::NoAccumulate;
use crate::ops::semiring::{LogicalSemiring, MinSelect2ndSemiring};
use crate::scalar::Scalar;
use crate::vector::Vector;
use crate::views::{complement, dual, Replace};

/// BFS levels from `source`: `levels[v]` = 1 + hop distance, with the
/// source at level 1 (the paper's `depth` starts at 1 on the first ply).
/// Unreachable vertices have no stored entry.
///
/// The graph is interpreted as a directed adjacency matrix with edges
/// `(start, end)`; traversal follows `graphᵀ ⊕.⊗ frontier` exactly as in
/// the paper. Edge values only matter through truthiness: a stored zero
/// is no edge.
pub fn bfs_level<T: Scalar>(graph: &Matrix<T>, source: IndexType) -> Result<Vector<u64>> {
    let n = graph.nrows();
    // The logical semiring only consults truthiness; one upfront
    // pattern cast puts graph, frontier, and levels in a common domain
    // (the DSL does the same upcast implicitly).
    let g = truthy_pattern(graph)?;
    // Pay the transpose once; the dual operand lets every ply pick the
    // push (sparse frontier) or pull (dense frontier) kernel.
    let gt = g.transpose_owned();
    let mut frontier = Vector::<u64>::new(n);
    frontier.set(source, 1)?;
    let mut levels = Vector::<u64>::new(n);
    let mut depth: u64 = 0;
    while frontier.nvals() > 0 {
        depth += 1;
        // levels<frontier, merge> = depth
        assign_vector_constant(
            &mut levels,
            &frontier,
            NoAccumulate,
            depth,
            &Indices::All,
            Replace(false),
        )?;
        // frontier<!levels, replace> = graphᵀ ⊕.⊗ frontier
        let snapshot = frontier.clone();
        mxv(
            &mut frontier,
            &complement(&levels),
            NoAccumulate,
            &LogicalSemiring::<u64>::new(),
            dual(&gt, &g),
            &snapshot,
            Replace(true),
        )?;
    }
    Ok(levels)
}

/// `graph`'s truthy entries as 1s. The cast goes through bool, so
/// fractional weights stay edges; a stored zero would multiply into a
/// stored `false` frontier entry that is never leveled, so it is
/// dropped (a rebuild only when the graph holds one).
fn truthy_pattern<T: Scalar>(graph: &Matrix<T>) -> Result<Matrix<u64>> {
    let pattern = graph.cast::<bool>();
    if pattern.iter().all(|(_, _, t)| t) {
        return Ok(pattern.cast());
    }
    let edges = pattern.iter().filter(|&(_, _, t)| t);
    Matrix::from_triples(
        graph.nrows(),
        graph.ncols(),
        edges.map(|(i, j, _)| (i, j, 1)),
    )
}

/// BFS parent tree from `source`: `parents[v]` = 1-based parent id on a
/// shortest hop path (`source`'s parent is itself). Uses the
/// MinSelect2nd semiring — `w = Gᵀ ⊕.⊗ f` multiplies matrix entries by
/// frontier values, and Select2nd propagates the frontier's parent ids —
/// so each discovered vertex records the smallest parent id reaching it.
pub fn bfs_parent<T: Scalar>(graph: &Matrix<T>, source: IndexType) -> Result<Vector<u64>> {
    let n = graph.nrows();
    let g: Matrix<u64> = graph.cast::<bool>().cast();
    let gt = g.transpose_owned();
    // Frontier carries 1-based vertex ids as values.
    let mut frontier = Vector::<u64>::new(n);
    frontier.set(source, source as u64 + 1)?;
    let mut parents = Vector::<u64>::new(n);
    parents.set(source, source as u64 + 1)?;
    while frontier.nvals() > 0 {
        // next<!parents, replace> = min.select1st(frontier ᵀ·G)
        // (vxm: frontier values propagate along out-edges).
        let snapshot = frontier.clone();
        mxv(
            &mut frontier,
            &complement(&parents),
            NoAccumulate,
            &MinSelect2ndSemiring::<u64>::new(),
            dual(&gt, &g),
            &snapshot,
            Replace(true),
        )?;
        // parents<frontier, merge> |= discovered parent ids
        let mut discovered: Vec<(IndexType, u64)> = frontier.iter().collect();
        // Re-tag frontier values with the *discoverer's own id* for the
        // next ply: each newly found vertex v propagates v+1 onward.
        for (i, v) in discovered.iter_mut() {
            parents.set(*i, *v)?;
            *v = *i as u64 + 1;
        }
        frontier = Vector::from_pairs(n, discovered)?;
    }
    Ok(parents)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 1's 7-vertex digraph, 0-based.
    fn fig1_graph() -> Matrix<bool> {
        Matrix::from_triples(
            7,
            7,
            [
                (0usize, 1usize, true),
                (0, 3, true),
                (1, 4, true),
                (1, 6, true),
                (2, 5, true),
                (3, 0, true),
                (3, 2, true),
                (4, 5, true),
                (5, 2, true),
                (6, 2, true),
                (6, 3, true),
                (6, 4, true),
            ],
        )
        .unwrap()
    }

    #[test]
    fn levels_from_vertex_3() {
        let levels = bfs_level(&fig1_graph(), 3).unwrap();
        // 3 → {0,2} → {1,5} → {4,6} …
        assert_eq!(levels.get(3), Some(1));
        assert_eq!(levels.get(0), Some(2));
        assert_eq!(levels.get(2), Some(2));
        assert_eq!(levels.get(1), Some(3));
        assert_eq!(levels.get(5), Some(3));
        assert_eq!(levels.get(4), Some(4));
        assert_eq!(levels.get(6), Some(4));
    }

    #[test]
    fn unreachable_vertices_unstored() {
        let g = Matrix::from_triples(4, 4, [(0usize, 1usize, true)]).unwrap();
        let levels = bfs_level(&g, 0).unwrap();
        assert_eq!(levels.get(0), Some(1));
        assert_eq!(levels.get(1), Some(2));
        assert_eq!(levels.get(2), None);
        assert_eq!(levels.get(3), None);
        assert_eq!(levels.nvals(), 2);
    }

    #[test]
    fn works_on_numeric_graphs() {
        // Edge weights are irrelevant to BFS; only pattern matters.
        let g = Matrix::from_triples(3, 3, [(0usize, 1usize, 0.5f64), (1, 2, 9.0)]).unwrap();
        let levels = bfs_level(&g, 0).unwrap();
        assert_eq!(levels.get(2), Some(3));
    }

    #[test]
    fn stored_zero_edges_are_not_edges() {
        let g = Matrix::from_triples(4, 4, [(0usize, 1usize, 0i32), (0, 2, 3), (2, 3, 0)]).unwrap();
        let levels = bfs_level(&g, 0).unwrap();
        assert_eq!(levels.iter().collect::<Vec<_>>(), vec![(0, 1), (2, 2)]);
    }

    #[test]
    fn parent_tree_is_consistent_with_levels() {
        let g = fig1_graph();
        let levels = bfs_level(&g, 3).unwrap();
        let parents = bfs_parent(&g, 3).unwrap();
        assert_eq!(parents.get(3), Some(4)); // own id, 1-based
        for (v, p1) in parents.iter() {
            if v == 3 {
                continue;
            }
            let p = (p1 - 1) as usize;
            // Parent is exactly one level shallower and has the edge.
            assert_eq!(levels.get(p).unwrap() + 1, levels.get(v).unwrap());
            assert!(g.get(p, v).is_some(), "edge {p}->{v} missing");
        }
        assert_eq!(parents.nvals(), levels.nvals());
    }

    #[test]
    fn singleton_graph() {
        let g = Matrix::<bool>::new(1, 1);
        let levels = bfs_level(&g, 0).unwrap();
        assert_eq!(levels.get(0), Some(1));
        assert_eq!(levels.nvals(), 1);
    }
}
