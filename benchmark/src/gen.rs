//! The benchmark's own seeded input generator.
//!
//! Inputs are owned here so that an edit to `pygb-io::generators` or
//! `shim-rand` can never change a workload: the program under test is
//! handed only triples, Matrix Market text and wire lines.

use std::fmt::Write as _;

/// splitmix64: the whole benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one named purpose, so adding a draw in
    /// one place never shifts the values another place sees.
    pub fn fork(&self, purpose: &str) -> Rng {
        let mut h = self.0 ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A square graph as sorted, duplicate-free `(row, col, weight)` triples.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    pub n: usize,
    pub edges: Vec<(usize, usize, f64)>,
}

/// Small-integer edge weight in `1..=8`, exact in `f64`, fixed by the
/// unordered endpoint pair so a symmetrized graph has symmetric weights.
fn weight(i: usize, j: usize) -> f64 {
    let (a, b) = (i.min(j) as u64, i.max(j) as u64);
    let mut r = Rng(a.wrapping_mul(0x1_0000_0001).wrapping_add(b));
    (r.next_u64() % 8 + 1) as f64
}

impl Graph {
    fn from_pairs(n: usize, mut pairs: Vec<(usize, usize)>) -> Graph {
        pairs.retain(|&(i, j)| i != j);
        pairs.sort_unstable();
        pairs.dedup();
        let edges = pairs
            .into_iter()
            .map(|(i, j)| (i, j, weight(i, j)))
            .collect();
        Graph { n, edges }
    }

    /// R-MAT with the Graph500 quadrant probabilities
    /// `(0.57, 0.19, 0.19, 0.05)`: `2^scale` vertices, `edge_factor`
    /// draws per vertex, self-loops and duplicates dropped.
    pub fn rmat(scale: u32, edge_factor: usize, rng: &mut Rng) -> Graph {
        let n = 1usize << scale;
        let pairs = (0..n * edge_factor)
            .map(|_| {
                let (mut i, mut j) = (0usize, 0usize);
                for _ in 0..scale {
                    let p = rng.next_f64();
                    let (di, dj) = if p < 0.57 {
                        (0, 0)
                    } else if p < 0.76 {
                        (0, 1)
                    } else if p < 0.95 {
                        (1, 0)
                    } else {
                        (1, 1)
                    };
                    i = (i << 1) | di;
                    j = (j << 1) | dj;
                }
                (i, j)
            })
            .collect();
        Graph::from_pairs(n, pairs)
    }

    /// Erdős–Rényi G(n, m): exactly `m` distinct directed non-loop edges.
    pub fn erdos_renyi(n: usize, m: usize, rng: &mut Rng) -> Graph {
        assert!(m <= n * (n - 1), "G(n, m) needs m <= n(n-1)");
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < m {
            let (i, j) = (rng.below(n), rng.below(n));
            if i != j {
                seen.insert((i, j));
            }
        }
        Graph::from_pairs(n, seen.into_iter().collect())
    }

    /// The paper's Fig 10 density: `|E| = |V|^1.5`.
    pub fn erdos_renyi_power(n: usize, rng: &mut Rng) -> Graph {
        Graph::erdos_renyi(n, ((n as f64).powf(1.5)).round() as usize, rng)
    }

    /// Add every reverse edge (weights are symmetric by construction).
    pub fn symmetrize(&self) -> Graph {
        let pairs = self
            .edges
            .iter()
            .flat_map(|&(i, j, _)| [(i, j), (j, i)])
            .collect();
        Graph::from_pairs(self.n, pairs)
    }

    /// Drop vertices with no incident edge and renumber the rest in
    /// order. PageRank's three variants only agree when every vertex
    /// has an in-edge, and an R-MAT draw leaves many vertices isolated.
    pub fn compact(&self) -> Graph {
        let mut used = vec![false; self.n];
        for &(i, j, _) in &self.edges {
            used[i] = true;
            used[j] = true;
        }
        let mut id = vec![usize::MAX; self.n];
        let mut n = 0;
        for (v, &u) in used.iter().enumerate() {
            if u {
                id[v] = n;
                n += 1;
            }
        }
        // Renumbering is monotone, so the triples stay sorted; weights
        // are kept from the original endpoints.
        let edges = self
            .edges
            .iter()
            .map(|&(i, j, w)| (id[i], id[j], w))
            .collect();
        Graph { n, edges }
    }

    /// The same graph with the names of vertices `a` and `b` exchanged.
    pub fn swap_vertices(&self, a: usize, b: usize) -> Graph {
        let name = |v: usize| match v {
            v if v == a => b,
            v if v == b => a,
            v => v,
        };
        let mut edges: Vec<(usize, usize, f64)> = self
            .edges
            .iter()
            .map(|&(i, j, w)| (name(i), name(j), w))
            .collect();
        edges.sort_by_key(|e| (e.0, e.1));
        Graph { n: self.n, edges }
    }

    /// Strictly-lower-triangular half, weights kept (what the server's
    /// `TRICOUNT` multiplies).
    pub fn lower(&self) -> Graph {
        let edges = self
            .edges
            .iter()
            .filter(|&&(i, j, _)| j < i)
            .copied()
            .collect();
        Graph { n: self.n, edges }
    }

    /// The same half with unit weights (the `L` of triangle counting).
    pub fn lower_unit(&self) -> Graph {
        let mut l = self.lower();
        for e in &mut l.edges {
            e.2 = 1.0;
        }
        l
    }

    /// Adjacency lists `(neighbor, weight)` per row, sorted by neighbor.
    pub fn adjacency(&self) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(i, j, w) in &self.edges {
            adj[i].push((j, w));
        }
        adj
    }

    /// Matrix Market coordinate text (1-based), the "file on disk".
    pub fn to_matrix_market(&self) -> String {
        let mut s = String::with_capacity(32 + self.edges.len() * 16);
        s.push_str("%%MatrixMarket matrix coordinate real general\n");
        let _ = writeln!(s, "{} {} {}", self.n, self.n, self.edges.len());
        for &(i, j, w) in &self.edges {
            let _ = writeln!(s, "{} {} {}", i + 1, j + 1, w);
        }
        s
    }

    /// The inline `i:j:v,...` list of `REGISTER … TRIPLES` / `UPDATE … ADD`.
    pub fn wire_triples(edges: &[(usize, usize, f64)]) -> String {
        let mut s = String::with_capacity(edges.len() * 12);
        for (k, &(i, j, w)) in edges.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(s, "{i}:{j}:{w}");
        }
        s
    }

    /// FNV-1a over the edge set: the identity of a generated input.
    pub fn hash(&self) -> u64 {
        let mut h = fnv1a(0xcbf2_9ce4_8422_2325, &(self.n as u64).to_le_bytes());
        for &(i, j, w) in &self.edges {
            h = fnv1a(h, &(i as u64).to_le_bytes());
            h = fnv1a(h, &(j as u64).to_le_bytes());
            h = fnv1a(h, &w.to_bits().to_le_bytes());
        }
        h
    }
}

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Zipf(1) sampler over ranks `0..k`: rank `r` has weight `1/(r+1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..k)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let p = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= p)
            .min(self.cdf.len() - 1)
    }
}

/// `k` distinct BFS/SSSP sources, in seeded order, that make every seed
/// do the same amount of work: vertices of the largest component of a
/// symmetric graph whose BFS reaches `depth` levels (a BFS runs one
/// iteration per level, so a source on a fragment, or one level deeper
/// than usual, would time a different op). `None` takes the commonest
/// depth among the `3k` candidates drawn; if fewer than `k` of them have
/// the wanted depth, others fill up.
pub fn giant_sources(g: &Graph, k: usize, depth: Option<u64>, rng: &mut Rng) -> Vec<usize> {
    let labels = crate::reference::components(g);
    let mut size = std::collections::BTreeMap::new();
    for &l in &labels {
        *size.entry(l).or_insert(0usize) += 1;
    }
    let giant = size
        .iter()
        .max_by_key(|&(&l, &s)| (s, std::cmp::Reverse(l)))
        .map(|(&l, _)| l)
        .expect("graph has vertices");
    let mut members: Vec<usize> = (0..g.n).filter(|&v| labels[v] == giant).collect();
    rng.shuffle(&mut members);
    members.truncate(3 * k);
    let adj = g.adjacency();
    let depths: Vec<u64> = members.iter().map(|&v| bfs_depth(&adj, v)).collect();
    let wanted = depth.unwrap_or_else(|| commonest(&depths));
    // Stable: candidates of the wanted depth first, seeded order kept.
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_by_key(|&i| depths[i] != wanted);
    order.into_iter().take(k).map(|i| members[i]).collect()
}

pub fn bfs_depth(adj: &[Vec<(usize, f64)>], source: usize) -> u64 {
    crate::reference::bfs_levels_adj(adj, source)
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0)
}

/// The most frequent value (the smallest such on a tie).
pub fn commonest(values: &[u64]) -> u64 {
    let mut count = std::collections::BTreeMap::new();
    for &v in values {
        *count.entry(v).or_insert(0usize) += 1;
    }
    count
        .into_iter()
        .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
        .map_or(0, |(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_the_edge_set() {
        // Pinned hashes: a change here changes every workload and
        // invalidates every committed baseline.
        let g = Graph::rmat(8, 8, &mut Rng::new(1).fork("rmat"));
        let h = Graph::rmat(8, 8, &mut Rng::new(1).fork("rmat"));
        assert_eq!(g, h);
        assert_eq!(g.hash(), h.hash());
        let other = Graph::rmat(8, 8, &mut Rng::new(2).fork("rmat"));
        assert_ne!(g.hash(), other.hash());
        let er = Graph::erdos_renyi_power(64, &mut Rng::new(1).fork("er"));
        assert_eq!(er.edges.len(), 512);
        assert_eq!(
            er,
            Graph::erdos_renyi_power(64, &mut Rng::new(1).fork("er"))
        );
    }

    #[test]
    fn pinned_stream() {
        // splitmix64 reference values for seed 0.
        let mut r = Rng::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn symmetrize_compact_lower() {
        let g = Graph::from_pairs(6, vec![(0, 2), (2, 0), (2, 5), (5, 5)]);
        assert_eq!(g.edges.len(), 3, "self-loop dropped");
        let s = g.symmetrize();
        assert_eq!(s.edges.len(), 4);
        for &(i, j, w) in &s.edges {
            assert!(s.edges.contains(&(j, i, w)), "weights symmetric");
        }
        let c = s.compact();
        assert_eq!(c.n, 3);
        assert_eq!(
            c.edges.iter().map(|&(i, j, _)| (i, j)).collect::<Vec<_>>(),
            vec![(0, 1), (1, 0), (1, 2), (2, 1)]
        );
        let l = c.lower_unit();
        assert_eq!(l.edges, vec![(1, 0, 1.0), (2, 1, 1.0)]);
        let swapped = c.swap_vertices(0, 2);
        assert_eq!(
            swapped
                .edges
                .iter()
                .map(|&(i, j, _)| (i, j))
                .collect::<Vec<_>>(),
            vec![(0, 1), (1, 0), (1, 2), (2, 1)],
            "a path stays a path"
        );
        assert_eq!(swapped.swap_vertices(0, 2), c);
    }

    #[test]
    fn matrix_market_and_wire_text() {
        let g = Graph {
            n: 3,
            edges: vec![(0, 1, 2.0), (2, 0, 7.0)],
        };
        assert_eq!(
            g.to_matrix_market(),
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 2\n3 1 7\n"
        );
        assert_eq!(Graph::wire_triples(&g.edges), "0:1:2,2:0:7");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(64);
        let mut rng = Rng::new(7);
        let mut hits = [0usize; 64];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[7] && hits[7] > hits[63]);
        assert!(hits.iter().all(|&h| h > 0));
    }

    #[test]
    fn giant_sources_stay_in_the_giant_component() {
        // Triangle {0,1,2} plus the pair {3,4}.
        let g = Graph::from_pairs(5, vec![(0, 1), (1, 2), (2, 0), (3, 4)]).symmetrize();
        let s = giant_sources(&g, 8, None, &mut Rng::new(3));
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|&v| v < 3));
        // A path 0-1-2-3-4: the ends see 5 levels, the middle 3, the two
        // others 4 — ends first (they tie with `1, 3`; smaller wins).
        let path = Graph::from_pairs(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]).symmetrize();
        let s = giant_sources(&path, 2, None, &mut Rng::new(3));
        let adj = path.adjacency();
        assert!(s.iter().all(|&v| bfs_depth(&adj, v) == 4), "{s:?}");
        let s = giant_sources(&path, 2, Some(5), &mut Rng::new(3));
        assert_eq!(
            {
                let mut s = s;
                s.sort_unstable();
                s
            },
            vec![0, 4]
        );
        assert_eq!(commonest(&[3, 4, 4, 5, 5]), 4);
    }
}
