//! Named-graph catalog over copy-on-write snapshots.
//!
//! The catalog maps graph names to [`Snapshot`]s. A snapshot is an
//! *immutable* `(name, version, Matrix)` triple behind an `Arc`: the
//! `Matrix` handle itself is an `Arc<MatrixStore>`, so handing a
//! snapshot to a query thread is two reference-count bumps — readers
//! never copy graph data and never block each other.
//!
//! Writers build a complete replacement graph off to the side and then
//! [`Catalog::register`] it, which swaps the map entry atomically under
//! a short write-lock and bumps the version. Queries already in flight
//! keep their `Arc<Snapshot>` alive and keep computing against the
//! version they were admitted with; the old store is freed when the
//! last in-flight reader drops it. This is exactly the DSL's own
//! copy-on-write discipline (`Matrix` clones share a store until
//! someone writes), promoted from per-handle to per-catalog-entry.

use parking_lot::RwLock;
use pygb::{EdgeUpdate, Matrix, PygbError, StreamingMatrix};
use std::collections::BTreeMap;
use std::sync::Arc;

use pygb_obs::json_escape;

/// How many lost publish races [`Catalog::update_edges`] re-applies a
/// batch before giving up. Each retry replays the delta on the racing
/// winner's snapshot, so one writer always makes global progress.
const UPDATE_PUBLISH_RETRIES: usize = 64;

/// An immutable published version of a named graph.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Catalog name the snapshot was published under.
    pub name: String,
    /// Monotonic per-name version, starting at 1.
    pub version: u64,
    /// The graph itself. Never mutated after publication.
    pub graph: Matrix,
}

impl Snapshot {
    /// One-line JSON descriptor used by `LIST` and query responses.
    pub fn info_json(&self) -> String {
        let (r, c) = self.graph.shape();
        format!(
            "{{\"name\":\"{}\",\"version\":{},\"nrows\":{},\"ncols\":{},\"nvals\":{},\"dtype\":\"{}\"}}",
            json_escape(&self.name),
            self.version,
            r,
            c,
            self.graph.nvals(),
            self.graph.dtype()
        )
    }
}

/// Thread-safe name → snapshot map with atomic version swap.
#[derive(Default)]
pub struct Catalog {
    graphs: RwLock<BTreeMap<String, Arc<Snapshot>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Publish `graph` under `name`. Upserts: an existing entry is
    /// replaced and its version bumped; in-flight readers of the old
    /// snapshot are unaffected. The caller must pass a settled matrix
    /// (no deferred ops) — enforced here via [`Matrix::settle`].
    pub fn register(&self, name: &str, mut graph: Matrix) -> pygb::Result<Arc<Snapshot>> {
        graph.settle()?;
        let mut map = self.graphs.write();
        let version = map.get(name).map_or(1, |old| old.version + 1);
        let snap = Arc::new(Snapshot {
            name: name.to_string(),
            version,
            graph,
        });
        map.insert(name.to_string(), Arc::clone(&snap));
        pygb_obs::registry()
            .counter("serve/catalog_registers")
            .inc();
        Ok(snap)
    }

    /// Apply a batch of edge mutations to the named graph and publish
    /// the result as the next version, never blocking readers: the
    /// delta is absorbed into a [`StreamingMatrix`] over the current
    /// snapshot (copy-on-write, so the published version is untouched),
    /// settled off-lock, and swapped in under the same short write-lock
    /// [`Catalog::register`] uses. If a concurrent publisher won the
    /// race for this name, the batch is re-applied on the winner's
    /// snapshot — updates serialize by version, not by lock hold time.
    ///
    /// Returns `Ok(None)` when no graph with that name exists (also
    /// when it disappears mid-retry). Validation failures (edge out of
    /// bounds) surface before anything is published.
    pub fn update_edges(
        &self,
        name: &str,
        batch: &[EdgeUpdate],
    ) -> pygb::Result<Option<Arc<Snapshot>>> {
        for _ in 0..UPDATE_PUBLISH_RETRIES {
            let Some(cur) = self.get(name) else {
                return Ok(None);
            };
            // All the heavy work — validation, delta apply, splice
            // merge — happens here with no catalog lock held.
            let mut stream = StreamingMatrix::from_matrix(&cur.graph)?;
            stream.update_edges(batch)?;
            stream.settle();
            let graph = stream.into_matrix();
            let mut map = self.graphs.write();
            match map.get(name) {
                None => return Ok(None),
                Some(entry) if entry.version == cur.version => {
                    let snap = Arc::new(Snapshot {
                        name: name.to_string(),
                        version: cur.version + 1,
                        graph,
                    });
                    map.insert(name.to_string(), Arc::clone(&snap));
                    pygb_obs::registry().counter("serve/catalog_updates").inc();
                    return Ok(Some(snap));
                }
                // Someone else published a new version between our read
                // and our write: drop the stale merge and re-apply.
                Some(_) => {
                    pygb_obs::registry()
                        .counter("serve/catalog_update_races")
                        .inc();
                }
            }
        }
        Err(PygbError::invalid(
            "update",
            "publish contention exceeded the retry budget",
            format!("update `{name}` batch(len={})", batch.len()),
        ))
    }

    /// Resolve a name to its current snapshot, if present.
    pub fn get(&self, name: &str) -> Option<Arc<Snapshot>> {
        self.graphs.read().get(name).cloned()
    }

    /// Remove a graph. Returns whether an entry existed. In-flight
    /// readers keep their snapshot alive until they finish.
    pub fn drop_graph(&self, name: &str) -> bool {
        let existed = self.graphs.write().remove(name).is_some();
        if existed {
            pygb_obs::registry().counter("serve/catalog_drops").inc();
        }
        existed
    }

    /// Current snapshots, in name order.
    pub fn list(&self) -> Vec<Arc<Snapshot>> {
        self.graphs.read().values().cloned().collect()
    }

    /// Number of named graphs currently published.
    pub fn len(&self) -> usize {
        self.graphs.read().len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.graphs.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pygb::DType;

    fn tiny(val: i64) -> Matrix {
        Matrix::from_triples(2, 2, vec![(0usize, 1usize, val)]).unwrap()
    }

    #[test]
    fn register_starts_at_version_one_and_bumps() {
        let cat = Catalog::new();
        let s1 = cat.register("g", tiny(1)).unwrap();
        assert_eq!(s1.version, 1);
        let s2 = cat.register("g", tiny(2)).unwrap();
        assert_eq!(s2.version, 2);
        assert_eq!(cat.get("g").unwrap().version, 2);
    }

    #[test]
    fn old_snapshot_survives_reregistration() {
        let cat = Catalog::new();
        let s1 = cat.register("g", tiny(7)).unwrap();
        cat.register("g", tiny(9)).unwrap();
        // The held snapshot still reads the value it was published with.
        assert_eq!(s1.graph.get(0, 1).unwrap().as_i64(), 7);
        assert_eq!(cat.get("g").unwrap().graph.get(0, 1).unwrap().as_i64(), 9);
    }

    #[test]
    fn drop_removes_but_does_not_invalidate_readers() {
        let cat = Catalog::new();
        let s = cat.register("g", tiny(3)).unwrap();
        assert!(cat.drop_graph("g"));
        assert!(!cat.drop_graph("g"));
        assert!(cat.get("g").is_none());
        assert_eq!(s.graph.nvals(), 1);
    }

    #[test]
    fn list_is_name_ordered() {
        let cat = Catalog::new();
        cat.register("zeta", tiny(1)).unwrap();
        cat.register("alpha", tiny(1)).unwrap();
        let names: Vec<_> = cat.list().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn update_edges_publishes_next_version_without_touching_readers() {
        let cat = Catalog::new();
        let held = cat.register("g", tiny(5)).unwrap();
        let snap = cat
            .update_edges(
                "g",
                &[EdgeUpdate::add(1usize, 0usize, 9i64), EdgeUpdate::del(0, 1)],
            )
            .unwrap()
            .unwrap();
        assert_eq!(snap.version, 2);
        assert_eq!(snap.graph.nvals(), 1);
        assert_eq!(snap.graph.get(1, 0).unwrap().as_i64(), 9);
        assert!(snap.graph.get(0, 1).is_none());
        // The version-1 reader still sees version-1 data.
        assert_eq!(held.graph.get(0, 1).unwrap().as_i64(), 5);
        assert_eq!(cat.get("g").unwrap().version, 2);
    }

    #[test]
    fn update_edges_missing_graph_is_none() {
        let cat = Catalog::new();
        assert!(cat
            .update_edges("ghost", &[EdgeUpdate::del(0, 0)])
            .unwrap()
            .is_none());
    }

    #[test]
    fn update_edges_out_of_bounds_leaves_catalog_untouched() {
        let cat = Catalog::new();
        cat.register("g", tiny(1)).unwrap();
        let err = cat
            .update_edges("g", &[EdgeUpdate::add(7usize, 7usize, 1i64)])
            .unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
        assert_eq!(cat.get("g").unwrap().version, 1);
    }

    #[test]
    fn racing_updates_all_land_as_distinct_versions() {
        let cat = Arc::new(Catalog::new());
        cat.register("g", Matrix::new(64, 64, DType::Int64))
            .unwrap();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cat = Arc::clone(&cat);
                std::thread::spawn(move || {
                    for k in 0..4usize {
                        cat.update_edges("g", &[EdgeUpdate::add(t, k, 1i64)])
                            .unwrap()
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = cat.get("g").unwrap();
        // 8 writers x 4 batches, each bumping exactly one version and
        // adding exactly one distinct edge.
        assert_eq!(snap.version, 33);
        assert_eq!(snap.graph.nvals(), 32);
    }

    #[test]
    fn info_json_reports_shape_and_dtype() {
        let cat = Catalog::new();
        let s = cat.register("g", Matrix::new(3, 4, DType::Fp64)).unwrap();
        assert_eq!(
            s.info_json(),
            "{\"name\":\"g\",\"version\":1,\"nrows\":3,\"ncols\":4,\"nvals\":0,\"dtype\":\"fp64\"}"
        );
    }
}
