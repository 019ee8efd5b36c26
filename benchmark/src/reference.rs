//! Independent textbook references every result is checked against.
//!
//! Nothing here calls the code under test: plain adjacency lists, a
//! binary heap, union-find. Semantics match the GraphBLAS formulations
//! the repo implements (1-based BFS levels and CC labels, absent entries
//! for unreached vertices, Fig 7's convergence rule for PageRank).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::gen::Graph;

/// BFS levels along out-edges: the source has level 1, unreached
/// vertices have `None`.
pub fn bfs_levels(g: &Graph, source: usize) -> Vec<Option<u64>> {
    bfs_levels_adj(&g.adjacency(), source)
}

/// [`bfs_levels`] over prebuilt adjacency lists (for many sources).
pub fn bfs_levels_adj(adj: &[Vec<(usize, f64)>], source: usize) -> Vec<Option<u64>> {
    let mut level = vec![None; adj.len()];
    level[source] = Some(1);
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let next = level[u].map(|l| l + 1);
        for &(v, _) in &adj[u] {
            if level[v].is_none() {
                level[v] = next;
                queue.push_back(v);
            }
        }
    }
    level
}

/// Dijkstra over the non-negative edge weights; unreachable = `None`.
pub fn sssp(g: &Graph, source: usize) -> Vec<Option<f64>> {
    let adj = g.adjacency();
    let mut dist: Vec<Option<f64>> = vec![None; g.n];
    // f64 is not Ord; the weights are small integers so the sums are
    // exact and their bit patterns order like the values.
    let mut heap = BinaryHeap::from([Reverse((0u64, source))]);
    dist[source] = Some(0.0);
    while let Some(Reverse((dbits, u))) = heap.pop() {
        let d = f64::from_bits(dbits);
        if dist[u].is_some_and(|best| d > best) {
            continue;
        }
        for &(v, w) in &adj[u] {
            let nd = d + w;
            if dist[v].is_none_or(|best| nd < best) {
                dist[v] = Some(nd);
                heap.push(Reverse((nd.to_bits(), v)));
            }
        }
    }
    dist
}

/// Power-iteration PageRank with the paper's Fig 7 stopping rule:
/// ranks start at `1/n`, each step is `r' = d·(rᵀM) + (1-d)/n` over the
/// row-normalized weights `M`, and the loop ends after the first step
/// whose mean squared change is below `threshold` or after `max_iters`.
/// Requires every vertex to have an out-edge and an in-edge (true of
/// every symmetrized, compacted benchmark graph). Returns the ranks and
/// the number of steps taken.
pub fn pagerank(g: &Graph, damping: f64, threshold: f64, max_iters: usize) -> (Vec<f64>, usize) {
    let n = g.n;
    let nf = n as f64;
    let mut row_sum = vec![0.0; n];
    for &(i, _, w) in &g.edges {
        row_sum[i] += w;
    }
    let mut rank = vec![1.0 / nf; n];
    let teleport = (1.0 - damping) / nf;
    for it in 0..max_iters {
        let mut next = vec![0.0; n];
        for &(i, j, w) in &g.edges {
            next[j] += rank[i] * (w / row_sum[i] * damping);
        }
        let mut err = 0.0;
        for (nx, r) in next.iter_mut().zip(&rank) {
            *nx += teleport;
            err += (r - *nx) * (r - *nx);
        }
        rank = next;
        if err / nf < threshold {
            return (rank, it + 1);
        }
    }
    (rank, max_iters)
}

/// `Σ_{(i,j)∈L} Σ_k L(i,k)·L(j,k)` by sorted-list intersection: with unit
/// weights, the triangle count of the graph whose strict lower
/// triangle is `l`.
pub fn triangle_sum(l: &Graph) -> f64 {
    let adj = l.adjacency();
    let mut total = 0.0;
    for &(i, j, _) in &l.edges {
        let (a, b) = (&adj[i], &adj[j]);
        let (mut p, mut q) = (0, 0);
        while p < a.len() && q < b.len() {
            match a[p].0.cmp(&b[q].0) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    total += a[p].1 * b[q].1;
                    p += 1;
                    q += 1;
                }
            }
        }
    }
    total
}

/// Union-find component of every vertex (edges taken as undirected),
/// named by its smallest member — 0-based here; GraphBLAS CC labels are
/// this plus one.
pub fn components(g: &Graph) -> Vec<usize> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..g.n).collect();
    for &(i, j, _) in &g.edges {
        let (a, b) = (find(&mut parent, i), find(&mut parent, j));
        // Always hang the larger root under the smaller, so a root is
        // the minimum of its component.
        if a != b {
            parent[a.max(b)] = a.min(b);
        }
    }
    (0..g.n).map(|v| find(&mut parent, v)).collect()
}

/// The raw expression chain `C⟨A⟩ = A ⊕.⊗ A; D = C ⊕ A; v = ⊕ⱼ D(:, j)`
/// over plus-times: per-row sums, `None` for rows with no entry.
pub fn expr_chain(a: &Graph) -> Vec<Option<f64>> {
    let adj = a.adjacency();
    let mut out = vec![None; a.n];
    for i in 0..a.n {
        if adj[i].is_empty() {
            continue;
        }
        let mut row = 0.0;
        for &(j, w_ij) in &adj[i] {
            // C(i,j) = Σ_k A(i,k)·A(k,j), computed only where A(i,j) exists.
            let mut c = None;
            for &(k, w_ik) in &adj[i] {
                if let Ok(pos) = adj[k].binary_search_by_key(&j, |&(col, _)| col) {
                    *c.get_or_insert(0.0) += w_ik * adj[k][pos].1;
                }
            }
            row += c.unwrap_or(0.0) + w_ij;
        }
        out[i] = Some(row);
    }
    out
}

/// Masked product alone, `C⟨M⟩ = A ⊕.⊗ B` over plus-times, as sorted
/// triples — the reference for `EXPR A MXM B MASK M`.
pub fn masked_mxm(a: &Graph, b: &Graph, mask: &Graph) -> Vec<(usize, usize, f64)> {
    let (adj_a, adj_b) = (a.adjacency(), b.adjacency());
    let mut out = Vec::new();
    for &(i, j, _) in &mask.edges {
        let mut c = None;
        for &(k, w_ik) in &adj_a[i] {
            if let Ok(pos) = adj_b[k].binary_search_by_key(&j, |&(col, _)| col) {
                *c.get_or_insert(0.0) += w_ik * adj_b[k][pos].1;
            }
        }
        if let Some(v) = c {
            out.push((i, j, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize, f64)]) -> Graph {
        let mut edges = edges.to_vec();
        edges.sort_by_key(|e| (e.0, e.1));
        Graph { n, edges }
    }

    fn undirected(n: usize, pairs: &[(usize, usize, f64)]) -> Graph {
        let both: Vec<_> = pairs
            .iter()
            .flat_map(|&(i, j, w)| [(i, j, w), (j, i, w)])
            .collect();
        graph(n, &both)
    }

    #[test]
    fn bfs_on_the_papers_fig1_digraph() {
        let g = graph(
            7,
            &[
                (0, 1, 1.0),
                (0, 3, 1.0),
                (1, 4, 1.0),
                (1, 6, 1.0),
                (2, 5, 1.0),
                (3, 0, 1.0),
                (3, 2, 1.0),
                (4, 5, 1.0),
                (5, 2, 1.0),
                (6, 2, 1.0),
                (6, 3, 1.0),
                (6, 4, 1.0),
            ],
        );
        let l = bfs_levels(&g, 3);
        assert_eq!(
            l,
            [2, 3, 2, 1, 4, 3, 4].map(Some).to_vec(),
            "levels from vertex 3"
        );
        let lonely = graph(3, &[(0, 1, 1.0)]);
        assert_eq!(bfs_levels(&lonely, 0), vec![Some(1), Some(2), None]);
    }

    #[test]
    fn dijkstra_prefers_the_cheap_detour() {
        let g = graph(4, &[(0, 1, 2.0), (1, 2, 3.0), (0, 2, 10.0), (2, 3, 1.0)]);
        assert_eq!(
            sssp(&g, 0),
            vec![Some(0.0), Some(2.0), Some(5.0), Some(6.0)]
        );
        assert_eq!(sssp(&g, 3), vec![None, None, None, Some(0.0)]);
    }

    #[test]
    fn pagerank_of_a_star_and_a_cycle() {
        // Undirected 3-cycle: uniform ranks are the fixed point, so the
        // first step changes nothing and the loop stops there.
        let c3 = undirected(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let (r, it) = pagerank(&c3, 0.85, 1e-5, 100);
        assert_eq!(it, 1);
        assert!(r.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-12));
        // Undirected star, exact fixed point: hub h, leaf l with
        // h = 0.15/4 + 0.85·3l and h + 3l = 1.
        let star = undirected(4, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]);
        let (r, it) = pagerank(&star, 0.85, 0.0, 200);
        assert_eq!(it, 200, "threshold 0 never stops early");
        let hub = (0.0375 + 0.85) / 1.85;
        assert!((r[0] - hub).abs() < 1e-9, "{} vs {hub}", r[0]);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn triangles_of_k4_and_a_weighted_wedge() {
        let mut l = Vec::new();
        for i in 0..4usize {
            for j in 0..i {
                l.push((i, j, 1.0));
            }
        }
        assert_eq!(triangle_sum(&graph(4, &l)), 4.0);
        // One triangle {0,1,2} with weights: L(2,0)·L(1,0) is the only
        // intersection, found from edge (2,1).
        let w = graph(3, &[(1, 0, 2.0), (2, 0, 3.0), (2, 1, 5.0)]);
        assert_eq!(triangle_sum(&w), 6.0);
    }

    #[test]
    fn components_are_named_by_their_minimum() {
        let g = graph(6, &[(4, 1, 1.0), (1, 3, 1.0), (5, 2, 1.0)]);
        assert_eq!(components(&g), vec![0, 1, 2, 1, 1, 2]);
    }

    #[test]
    fn expr_chain_on_a_triangle() {
        // A = undirected unit triangle: (A·A)(i,j) for i≠j is 1 (the one
        // common neighbour), so D(i,j) = 2 and each row sums to 4.
        let a = undirected(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        assert_eq!(expr_chain(&a), vec![Some(4.0); 3]);
        // A path 0-1-2 has no closed wedge: C is empty, D = A.
        let p = undirected(4, &[(0, 1, 2.0), (1, 2, 3.0)]);
        assert_eq!(expr_chain(&p), vec![Some(2.0), Some(5.0), Some(3.0), None]);
        assert_eq!(
            masked_mxm(&a, &a, &a).len(),
            6,
            "every edge of a triangle closes a wedge"
        );
        assert!(masked_mxm(&p, &p, &p).is_empty());
    }
}
