//! Connected components in the three variants — a fifth algorithm
//! beyond the paper's four, written as a downstream user would: the DSL
//! form only touches the public PyGB API.

use pygb::{Accumulator, Matrix, MinSelect2ndSemiring, Vector};

use crate::fused::{self, CcArgs};

/// Native baseline.
pub use gbtl::algorithms::{component_count, connected_components as cc_native};

/// Min-label propagation through per-op DSL dispatch. Returns the
/// label vector (`uint64`, 1-based smallest reachable id) and the
/// number of rounds.
pub fn cc_dsl_loops(graph: &Matrix) -> pygb::Result<(Vector, usize)> {
    let n = graph.nrows();
    let mut labels = Vector::from_pairs(n, (0..n).map(|i| (i, i as u64 + 1)))?;
    let mut rounds = 0;
    loop {
        rounds += 1;
        // with gb.MinSelect2ndSemiring, gb.Accumulator("Min"):
        let _sr = MinSelect2ndSemiring.enter();
        let _acc = Accumulator::new("Min")?.enter();
        let mut next = labels.clone();
        // next[None] += graph @ labels
        next.no_mask().accum_assign(graph.mxv(&labels))?;
        // next[None] += graph.T @ next
        let snapshot = next.clone();
        next.no_mask().accum_assign(graph.t().mxv(&snapshot))?;
        if next == labels || rounds > n {
            return Ok((labels, rounds));
        }
        labels = next;
    }
}

/// Connected components as one fused-kernel dispatch.
pub fn cc_dsl_fused(graph: &Matrix) -> pygb::Result<(Vector, usize)> {
    let mut args = CcArgs {
        graph: fused::settled(graph)?,
        labels: None,
        rounds: 0,
    };
    fused::dispatch("algo_cc", graph.dtype(), &mut args)?;
    Ok((args.labels.expect("kernel sets labels"), args.rounds))
}

/// Count distinct components in a DSL label vector.
pub fn count_components(labels: &Vector) -> usize {
    let mut ids: Vec<i64> = labels
        .extract_pairs()
        .into_iter()
        .map(|(_, v)| v.as_i64())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pygb::DType;

    /// Union-find oracle over the raw edges.
    fn oracle_components(n: usize, edges: &[(usize, usize)]) -> usize {
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        for &(a, b) in edges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut roots: Vec<usize> = (0..n).map(|v| find(&mut parent, v)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    fn er_graph(n: usize, m: usize, seed: u64) -> (Matrix, Vec<(usize, usize)>) {
        let edges = pygb_io::generators::erdos_renyi(n, m, seed);
        let pairs: Vec<(usize, usize)> = edges.edges.iter().map(|&(s, d, _)| (s, d)).collect();
        (edges.to_pygb(DType::Fp64), pairs)
    }

    #[test]
    fn all_variants_agree_and_match_union_find() {
        for (n, m, seed) in [(24usize, 12usize, 1u64), (48, 40, 2), (64, 20, 3)] {
            let (g, pairs) = er_graph(n, m, seed);
            let (loops, _) = cc_dsl_loops(&g).unwrap();
            let (fused, _) = cc_dsl_fused(&g).unwrap();
            assert_eq!(loops.extract_pairs(), fused.extract_pairs(), "n={n}");

            let ng: gbtl::Matrix<f64> = g.to_typed().unwrap();
            let (native, _) = cc_native(&ng).unwrap();
            let native_pairs: Vec<(usize, u64)> = native.iter().collect();
            let loop_pairs: Vec<(usize, u64)> = loops
                .extract_pairs()
                .into_iter()
                .map(|(i, v)| (i, v.as_i64() as u64))
                .collect();
            assert_eq!(loop_pairs, native_pairs, "n={n}");

            assert_eq!(
                count_components(&loops),
                oracle_components(n, &pairs),
                "n={n} seed={seed}"
            );
        }
    }

    #[test]
    fn labels_are_canonical_minimums() {
        // In each component the label equals the smallest member id + 1.
        let (g, pairs) = er_graph(32, 20, 9);
        let (labels, _) = cc_dsl_loops(&g).unwrap();
        // Build components from the oracle and check min ids.
        let mut parent: Vec<usize> = (0..32).collect();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        for &(a, b) in &pairs {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut min_of_root = std::collections::HashMap::new();
        for v in 0..32 {
            let r = find(&mut parent, v);
            let e = min_of_root.entry(r).or_insert(v);
            *e = (*e).min(v);
        }
        for v in 0..32usize {
            let r = find(&mut parent, v);
            let expect = min_of_root[&r] as i64 + 1;
            assert_eq!(labels.get(v).unwrap().as_i64(), expect, "vertex {v}");
        }
    }
}
