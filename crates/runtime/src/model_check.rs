//! Exhaustive model check of the wave scheduler's flush path.
//!
//! The flush path has two sources of schedule nondeterminism: which
//! ready node of a wave completes first, and when a re-entrant flush
//! (triggered by a read during node execution) observes the `flushing`
//! claim. Both are cooperative — no weak memory is involved — so the
//! whole schedule space can be enumerated with the loom-style drivers
//! in `parking_lot::model` (the workspace's `pygb-sync` shim) and the
//! real scheduler primitives ([`dag::begin_flush`],
//! [`dag::ReadySet`]) asserted under every ordering. After every
//! completion the incremental ready set is compared with the
//! rescanning oracle ([`dag::ready_by_rescan`]); a property test does
//! the same over random DAGs, and two counting tests bound the
//! scheduler's and the fusion checks' work by the node count.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::model;
use pygb::expr::{VectorExpr, VectorExprKind};
use pygb::nb::{VecOpDesc, VecRhs};
use pygb::store::VectorStore;
use pygb::DType;

use crate::dag::{self, vptr, AliasSet, Dag, Node, ReadySet};

fn store(size: usize) -> Arc<VectorStore> {
    Arc::new(VectorStore::new(size, DType::Fp64))
}

/// A synthetic deferred node reading `input` and producing `out` — a
/// real `VecOpDesc` (plain `Ref` assignment), as enqueue would mint it.
fn node(input: &Arc<VectorStore>, out: &Arc<VectorStore>) -> Node {
    Node::Vec(VecOpDesc {
        target: store(input.size()),
        out: Arc::clone(out),
        mask: None,
        accum: None,
        replace: false,
        region: None,
        rhs: VecRhs::Expr(VectorExpr {
            kind: VectorExprKind::Ref {
                u: Arc::clone(input),
            },
            build_ns: 0,
        }),
    })
}

fn out_of(n: &Node) -> Arc<VectorStore> {
    match n {
        Node::Vec(d) => Arc::clone(&d.out),
        Node::Mat(_) => unreachable!("vector-only model"),
    }
}

fn push(dag: &mut Dag, n: Node) {
    let out = vptr(&out_of(&n));
    // The real enqueue path, so ids are minted exactly as in production.
    dag::push_node(dag, out, n);
}

/// Diamond topology: `0 -> {1, 2} -> 3`, plus the placeholder handles a
/// caller would hold (returned so `Arc` counts mirror live containers).
fn diamond() -> (Dag, Vec<Arc<VectorStore>>) {
    let src = store(4);
    let o0 = store(4);
    let o1 = store(4);
    let o2 = store(4);
    let o3 = store(4);
    let mut dag = Dag::default();
    push(&mut dag, node(&src, &o0));
    push(&mut dag, node(&o0, &o1));
    push(&mut dag, node(&o0, &o2));
    // The sink reads one mid node as its expression input and the other
    // as its mask, so it depends on both.
    let sink = match node(&o1, &o3) {
        Node::Vec(mut d) => {
            d.mask = Some((Arc::clone(&o2), false));
            Node::Vec(d)
        }
        Node::Mat(_) => unreachable!(),
    };
    push(&mut dag, sink);
    (dag, vec![o0, o1, o2, o3])
}

/// Land the result of a handed-out node as the flush's merge loop does:
/// resolve its placeholder, drain the alias sets it keys, and tell the
/// ready set about every placeholder that resolved.
fn land(dag: &mut Dag, sched: &mut ReadySet, n: Node) {
    let out = out_of(&n);
    let p = vptr(&out);
    let value = store(out.size());
    dag.pending.remove(&p);
    dag.resolved_v.insert(p, (out, value));
    sched.resolve(p);
    dag::drain_aliases(dag, p, &mut |q| sched.resolve(q));
}

/// Start and complete node `i`, then check the incremental ready set
/// against the rescanning oracle.
fn complete(dag: &mut Dag, sched: &mut ReadySet, i: usize) {
    assert!(sched.take(i), "completing a node that is not ready");
    let n = dag.nodes[i].take().expect("completing an absent node");
    land(dag, sched, n);
    assert_eq!(
        sched.ready(),
        dag::ready_by_rescan(dag),
        "ready set drifted"
    );
}

#[test]
fn scheduler_admits_exactly_the_topological_orders() {
    let mut completed_schedules = 0;
    let explored = model::permutations(&[0usize, 1, 2, 3], |order| {
        let (mut dag, _keep) = diamond();
        let mut sched = ReadySet::new(&dag);
        let mut ran = Vec::new();
        for &i in order {
            if !sched.ready().contains(&i) {
                // The scheduler can never run a node before its inputs
                // resolve; this order is unreachable. Every dependency
                // violated must involve a predecessor not yet run.
                let deps: &[usize] = match i {
                    0 => &[],
                    1 | 2 => &[0],
                    3 => &[1, 2],
                    _ => unreachable!(),
                };
                assert!(
                    deps.iter().any(|d| !ran.contains(d)),
                    "node {i} blocked with all dependencies resolved"
                );
                return;
            }
            complete(&mut dag, &mut sched, i);
            ran.push(i);
        }
        // Fully drained: the DAG is empty and nothing is pending.
        assert!(dag.nodes.iter().all(|n| n.is_none()));
        assert!(dag.pending.is_empty());
        assert_eq!(sched.remaining(), 0);
        completed_schedules += 1;
    });
    assert_eq!(explored, 24, "4! schedules must be explored");
    assert_eq!(
        completed_schedules, 2,
        "the diamond admits exactly two topological orders (0,1,2,3 / 0,2,1,3)"
    );
}

#[test]
fn every_wave_is_nonempty_until_drained() {
    // Whatever completion order previous waves took, the next
    // ready set is never empty while nodes remain (no spurious wedge).
    let explored = model::permutations(&[0usize, 1, 2], |mid_order| {
        let (mut dag, _keep) = diamond();
        let mut sched = ReadySet::new(&dag);
        // Wave 1 is exactly the source.
        assert_eq!(sched.ready(), vec![0]);
        complete(&mut dag, &mut sched, 0);
        // Wave 2 is both mid nodes; complete them in the explored
        // order (the third event, the sink, must never be ready early).
        for &ev in mid_order {
            match ev {
                0 | 1 => {
                    let ready = sched.ready();
                    assert!(ready.contains(&(ev + 1)), "mid node {} ready", ev + 1);
                    assert!(!ready.contains(&3), "sink ready before its inputs");
                    complete(&mut dag, &mut sched, ev + 1);
                }
                2 => {
                    // The sink's slot in the schedule: ready only once
                    // both mids completed.
                    let ready = sched.ready();
                    let mids_done = dag.nodes[1].is_none() && dag.nodes[2].is_none();
                    assert_eq!(ready.contains(&3), mids_done);
                    if mids_done {
                        complete(&mut dag, &mut sched, 3);
                    }
                }
                _ => unreachable!(),
            }
        }
        let remaining = dag.nodes.iter().flatten().count();
        assert_eq!(sched.remaining(), remaining);
        if remaining > 0 {
            // Only the sink can remain, and only because its schedule
            // slot came too early — it is ready now.
            assert_eq!(sched.ready(), vec![3]);
        }
    });
    assert_eq!(explored, 6);
}

#[test]
fn cyclic_dag_is_reported_wedged_not_spun() {
    // Two nodes reading each other's placeholders: no wave is ever
    // ready. The scheduler must detect this (flush surfaces it as a
    // "wedged" error) rather than loop forever.
    let o0 = store(2);
    let o1 = store(2);
    let mut dag = Dag::default();
    push(&mut dag, node(&o1, &o0));
    push(&mut dag, node(&o0, &o1));
    let mut sched = ReadySet::new(&dag);
    assert!(dag::ready_by_rescan(&dag).is_empty());
    assert!(sched.take_wave().is_empty());
    assert_eq!(sched.remaining(), 2);
}

#[test]
fn flush_claim_is_exclusive_under_all_interleavings() {
    // Two logical flushers each run [try-claim, release-if-held]. Under
    // every interleaving: at most one holds the claim at a time, the
    // flag always equals "someone holds it", and at least one flusher
    // succeeds (no lost flush).
    let explored = model::interleavings(&[2, 2], |sched| {
        let (mut dag, _keep) = diamond();
        let mut pc = [0usize; 2];
        let mut holding = [false; 2];
        let mut successes = 0;
        for &t in sched {
            match pc[t] {
                0 => {
                    if dag::begin_flush(&mut dag) {
                        holding[t] = true;
                        successes += 1;
                    }
                }
                1 => {
                    if holding[t] {
                        dag.flushing = false;
                        holding[t] = false;
                    }
                }
                _ => unreachable!(),
            }
            pc[t] += 1;
            assert!(
                holding.iter().filter(|&&h| h).count() <= 1,
                "two flushers claimed the same DAG"
            );
            assert_eq!(dag.flushing, holding.iter().any(|&h| h));
        }
        assert!(successes >= 1, "every schedule must admit one flush");
    });
    assert_eq!(explored, 6);
}

#[test]
fn reentrant_claim_inside_a_flush_is_a_noop() {
    let (mut dag, _keep) = diamond();
    assert!(dag::begin_flush(&mut dag));
    // A read during node execution re-enters flush: it must not claim.
    assert!(!dag::begin_flush(&mut dag));
    dag.flushing = false;
    // After the drain completes the claim is available again.
    assert!(dag::begin_flush(&mut dag));
}

#[test]
fn empty_dag_never_claims_the_flush() {
    let mut dag = Dag::default();
    assert!(!dag::begin_flush(&mut dag));
    assert!(!dag.flushing);
    // Fully executed DAG (all slots None) also declines and compacts.
    let (mut dag, _keep) = diamond();
    let mut sched = ReadySet::new(&dag);
    loop {
        let wave = sched.take_wave();
        if wave.is_empty() {
            break;
        }
        for i in wave {
            let n = dag.nodes[i].take().expect("handed-out node present");
            land(&mut dag, &mut sched, n);
        }
    }
    assert_eq!(sched.remaining(), 0);
    assert!(!dag::begin_flush(&mut dag));
    assert!(dag.nodes.is_empty(), "claim attempt compacts the spent DAG");
}

// ---------------------------------------------------------------------
// The incremental ready set against the rescanning oracle, on random
// DAGs; and the scheduler's cost, counted.
// ---------------------------------------------------------------------

/// A random DAG over vector placeholders: chains and diamonds (each
/// node reads up to three earlier placeholders or clean stores, as its
/// merge-base target, expression operands and mask), region assigns,
/// and CSE-style alias duplicates — placeholders whose producing slot
/// is empty and which resolve when their representative lands, read
/// by later nodes like any other placeholder. Returns the DAG and the
/// handles that keep every address alive.
fn random_dag(rng: &mut proptest::TestRng) -> (Dag, Vec<Arc<VectorStore>>) {
    let mut dag = Dag::default();
    let mut keep: Vec<Arc<VectorStore>> = (0..2).map(|_| store(4)).collect();
    // Placeholders a later node may read (clean stores included).
    let mut readable: Vec<Arc<VectorStore>> = keep.clone();
    let nodes = 1 + rng.below(12);
    for _ in 0..nodes {
        let pick = |rng: &mut proptest::TestRng| {
            // Favor recent placeholders, so chains form.
            let k = readable.len();
            let back = rng.below(k.min(4));
            Arc::clone(
                &readable[if rng.below(3) == 0 {
                    rng.below(k)
                } else {
                    k - 1 - back
                }],
            )
        };
        let (u, v) = (pick(rng), pick(rng));
        let target = if rng.below(2) == 0 {
            pick(rng)
        } else {
            store(4)
        };
        let mask = (rng.below(3) == 0).then(|| (pick(rng), rng.below(2) == 0));
        let out = store(4);
        let kind = if rng.below(2) == 0 {
            VectorExprKind::Ref { u }
        } else {
            VectorExprKind::EWiseAdd { u, v, op: None }
        };
        let n = Node::Vec(VecOpDesc {
            target,
            out: Arc::clone(&out),
            mask,
            accum: None,
            replace: false,
            region: (rng.below(4) == 0).then_some(gbtl::Indices::Range(0, 2)),
            rhs: VecRhs::Expr(VectorExpr { kind, build_ns: 0 }),
        });
        push(&mut dag, n);
        keep.push(Arc::clone(&out));
        readable.push(Arc::clone(&out));
        if rng.below(3) == 0 {
            // A duplicate of a pending placeholder, as CSE or the no-op
            // pass leaves it: its slot is emptied, its `pending` entry
            // kept, and an alias set keyed by the representative
            // resolves it. The representative may itself be a
            // duplicate (cascading sets).
            let pending: Vec<Arc<VectorStore>> = readable
                .iter()
                .filter(|s| dag.pending.contains_key(&vptr(s)))
                .cloned()
                .collect();
            let rep = Arc::clone(&pending[rng.below(pending.len())]);
            let dup = store(4);
            push(&mut dag, node(&rep, &dup));
            let slot = dag.nodes.len() - 1;
            dag.nodes[slot] = None;
            dag.alias_v
                .entry(vptr(&rep))
                .or_insert_with(|| AliasSet {
                    rep: Arc::clone(&rep),
                    dups: Vec::new(),
                })
                .dups
                .push(Arc::clone(&dup));
            keep.push(Arc::clone(&dup));
            readable.push(dup);
        }
    }
    (dag, keep)
}

/// Placeholders that can never resolve once the node at `failed` fails
/// — its output and, transitively, every alias duplicate of it and the
/// output of every node reading one — and the slots blocked by them.
/// Computed from the DAG as built, independently of the scheduler.
fn dependents_of(dag: &Dag, failed: usize) -> HashSet<usize> {
    let mut blocked: HashSet<usize> = HashSet::new();
    let mut slots = HashSet::new();
    let out_ptr = |n: &Node| vptr(&out_of(n));
    blocked.insert(out_ptr(dag.nodes[failed].as_ref().unwrap()));
    loop {
        let before = (blocked.len(), slots.len());
        for (rep, set) in &dag.alias_v {
            if blocked.contains(rep) {
                blocked.extend(set.dups.iter().map(vptr));
            }
        }
        for (i, n) in dag.nodes.iter().enumerate() {
            let Some(n) = n else { continue };
            if i != failed && dag::node_inputs(n).iter().any(|p| blocked.contains(p)) {
                slots.insert(i);
                blocked.insert(out_ptr(n));
            }
        }
        if (blocked.len(), slots.len()) == before {
            return slots;
        }
    }
}

/// Over random DAGs and random schedules — a whole wave handed out at
/// once or one ready node at a time — the incremental ready set equals
/// the rescanning oracle after every completion, every node runs, and
/// a failing node (whose result never lands) leaves exactly its
/// transitive dependents unrun.
#[test]
fn ready_set_matches_the_rescan_oracle_on_random_dags() {
    proptest::run_cases("ready_set_matches_the_rescan_oracle", |rng| {
        let (mut dag, _keep) = random_dag(rng);
        let live: Vec<usize> = (0..dag.nodes.len())
            .filter(|&i| dag.nodes[i].is_some())
            .collect();
        let failing = (rng.below(2) == 0).then(|| live[rng.below(live.len())]);
        let expect_unrun = failing.map_or_else(HashSet::new, |f| dependents_of(&dag, f));
        let mut sched = ReadySet::new(&dag);
        assert_eq!(sched.ready(), dag::ready_by_rescan(&dag));
        loop {
            let started: Vec<usize> = if rng.below(2) == 0 {
                sched.take_wave()
            } else {
                let ready = sched.ready();
                if ready.is_empty() {
                    Vec::new()
                } else {
                    let i = ready[rng.below(ready.len())];
                    assert!(sched.take(i));
                    vec![i]
                }
            };
            if started.is_empty() {
                break;
            }
            let mut nodes: Vec<(usize, Node)> = started
                .into_iter()
                .map(|i| (i, dag.nodes[i].take().expect("handed-out node present")))
                .collect();
            // Results of one wave land in any order.
            while !nodes.is_empty() {
                let (i, n) = nodes.swap_remove(rng.below(nodes.len()));
                if Some(i) != failing {
                    land(&mut dag, &mut sched, n);
                }
                // Handed-out slots are empty, so the oracle's rescan and
                // the ready set describe the same not-yet-started nodes.
                assert_eq!(
                    sched.ready(),
                    dag::ready_by_rescan(&dag),
                    "ready set drifted"
                );
            }
        }
        let unrun: HashSet<usize> = (0..dag.nodes.len())
            .filter(|&i| dag.nodes[i].is_some())
            .collect();
        assert_eq!(sched.remaining(), unrun.len());
        assert_eq!(
            unrun, expect_unrun,
            "a failure must abandon exactly its dependents"
        );
        Ok(())
    });
}

/// Scheduler and fusion-check visits made on this thread while
/// `enqueue`'s deferred nodes are flushed.
fn flush_visits(enqueue: impl FnOnce()) -> u64 {
    let before = dag::visits();
    {
        let _nb = crate::nonblocking().unwrap();
        enqueue();
    }
    dag::visits() - before
}

/// A flush's scheduling and fusion checks cost `O(nodes + edges)`:
/// building the ready set visits each slot once, each landing result
/// visits its readers once, and each fusion check reads two counts
/// instead of walking the DAG. Counted, not timed, on a 4096-node
/// chain (4096 waves of one node, each reading its predecessor twice)
/// and a 4096-node independent wave; each may visit at most `C·N`
/// slots. A scheduler that rescans the DAG per wave visits `~N²/2`.
#[test]
fn flush_visits_are_linear_in_the_node_count() {
    const N: usize = 4096;
    const C: u64 = 8;
    let u = {
        let mut u = pygb::Vector::new(4, DType::Fp64);
        for i in 0..4 {
            u.set(i, 1.0f64).unwrap();
        }
        u
    };

    let mut w = pygb::Vector::new(4, DType::Fp64);
    let chain = flush_visits(|| {
        let _op = pygb::BinaryOp::new("Plus").unwrap().enter();
        for _ in 0..N {
            let prev = w.clone();
            w.no_mask().assign(&prev + &u).unwrap();
        }
    });
    assert_eq!(w.to_dense_f64(), vec![N as f64; 4]);
    assert!(
        chain <= C * N as u64,
        "chain flush visited {chain} slots for {N} nodes"
    );

    let operands: Vec<pygb::Vector> = (0..N)
        .map(|i| {
            let mut v = pygb::Vector::new(4, DType::Fp64);
            v.set(i % 4, i as f64).unwrap();
            v
        })
        .collect();
    let mut outs: Vec<pygb::Vector> = (0..N).map(|_| pygb::Vector::new(4, DType::Fp64)).collect();
    let wave = flush_visits(|| {
        let _op = pygb::BinaryOp::new("Plus").unwrap().enter();
        for (out, x) in outs.iter_mut().zip(&operands) {
            out.no_mask().assign(x + &u).unwrap();
        }
    });
    assert_eq!(outs[5].to_dense_f64(), vec![1.0, 6.0, 1.0, 1.0]);
    assert!(
        wave <= C * N as u64,
        "wave flush visited {wave} slots for {N} nodes"
    );
}

// ---------------------------------------------------------------------
// Serve-layer protocols, modeled here where the interleaving drivers
// live. The catalog's CAS publish is an abstract state machine (the
// serve crate sits above this one); the delta-merge model drives the
// real `gbtl::delta::DeltaMatrix` container.
// ---------------------------------------------------------------------

/// Model of `pygb_serve::Catalog::update_edges`: read the current
/// version, do the merge off-lock, publish only if the version is
/// still the one that was read, else retry on the winner's snapshot.
///
/// Two writers (one batch each) race a reader over a graph seeded at
/// version 1. Each writer attempt is two scheduler-visible steps —
/// [read-version, CAS-publish] — and each writer gets two attempts
/// (with one rival publish per writer, one retry always suffices; the
/// model asserts that bound rather than assuming it). Under every
/// interleaving: both batches land as distinct versions (none lost),
/// the version ends exactly two past the seed, a published snapshot is
/// never mutated, and the reader's observed version never regresses.
#[test]
fn catalog_cas_publish_loses_no_batch_under_any_interleaving() {
    let explored = model::interleavings(&[4, 4, 2], |sched| {
        // name -> latest version; plus the immutable publish history
        // (version -> writer id), standing in for snapshot payloads.
        let mut version: u64 = 1;
        let mut history: Vec<(u64, usize)> = vec![(1, usize::MAX)]; // seed
        let mut races = 0usize;
        // Per-writer: program counter, version read at attempt start,
        // and whether its batch has been published.
        let mut pc = [0usize; 2];
        let mut read_at = [0u64; 2];
        let mut done = [false; 2];
        // Reader: snapshot captured at its first step, for the
        // immutability and monotonicity checks.
        let mut held: Option<(u64, usize)> = None;
        let mut last_seen: u64 = 0;
        for &t in sched {
            match t {
                0 | 1 => {
                    if done[t] {
                        continue; // published: remaining slots are no-ops
                    }
                    if pc[t] % 2 == 0 {
                        // Read the current snapshot; the merge itself
                        // happens off-lock on this frozen version.
                        read_at[t] = version;
                    } else {
                        // CAS publish: only if nobody won in between.
                        if version == read_at[t] {
                            version += 1;
                            history.push((version, t));
                            done[t] = true;
                        } else {
                            races += 1; // stale merge dropped, re-apply
                        }
                    }
                    pc[t] += 1;
                }
                2 => {
                    // Reader: versions move forward only, and the
                    // snapshot it was admitted with never changes.
                    assert!(version >= last_seen, "catalog version regressed");
                    last_seen = version;
                    match held {
                        None => held = Some(*history.last().unwrap()),
                        Some(snap) => assert!(
                            history.contains(&snap),
                            "held snapshot mutated under the reader"
                        ),
                    }
                }
                _ => unreachable!(),
            }
        }
        assert!(
            done[0] && done[1],
            "a writer needed more than one retry with a single rival publish"
        );
        assert_eq!(version, 3, "two batches over a v1 seed must end at v3");
        assert!(races <= 1, "at most one CAS can lose with two writers");
        let published: Vec<usize> = history[1..].iter().map(|&(_, w)| w).collect();
        let mut sorted = published.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1], "each batch published exactly once");
    });
    // 10 steps, 4+4+2 per thread: 10!/(4!·4!·2!) schedules.
    assert_eq!(explored, 3150);
}

/// Drive the real [`gbtl::delta::DeltaMatrix`] through every
/// interleaving of two writers (two update batches each, with
/// overlapping coordinates so last-write-wins order matters) and one
/// reader issuing tracked reads. The policy thresholds are set low so
/// both auto-merge triggers — pending-op count and read pressure —
/// fire mid-schedule in some interleavings and not others.
///
/// Invariants under every schedule: `nvals` stays exact after every
/// step, every tracked read returns the oracle value at that moment,
/// and the settled container matches a plain map that applied the same
/// ops in the same executed order — i.e. a policy-triggered merge
/// firing between (or inside) batches never loses or reorders an op.
#[test]
fn delta_merge_triggers_lose_no_ops_under_any_interleaving() {
    use gbtl::delta::{DeltaMatrix, MergePolicy};
    use gbtl::matrix::Matrix;
    use std::collections::BTreeMap;

    type Batch = &'static [(usize, usize, Option<i64>)];
    // Writer programs. (0,0) is written by both writers and deleted by
    // one; (0,3) deletes a base-resident value through the overlay.
    const W0: [Batch; 2] = [
        &[(0, 0, Some(10)), (1, 1, Some(11))],
        &[(0, 0, None), (2, 2, Some(12))],
    ];
    const W1: [Batch; 2] = [
        &[(0, 0, Some(20)), (3, 3, Some(21))],
        &[(0, 3, None), (0, 1, Some(22))],
    ];

    let mut any_auto_merge = false;
    let explored = model::interleavings(&[2, 2, 2], |sched| {
        // Settled 4x4 base with two seeded values.
        let mut seed = DeltaMatrix::new(Matrix::<i64>::new(4, 4));
        seed.update_edges([(0, 3, Some(7)), (3, 0, Some(8))])
            .unwrap();
        seed.settle();
        let mut dm = DeltaMatrix::with_policy(
            seed.base().clone(),
            MergePolicy {
                max_pending: 3,
                read_pressure: 2,
            },
        );
        // Oracle: the merged view is exactly "apply ops in executed
        // order, last write wins" over the base.
        let mut oracle: BTreeMap<(usize, usize), i64> =
            [((0, 3), 7), ((3, 0), 8)].into_iter().collect();
        let mut pc = [0usize; 3];
        let mut merges_seen = 0u64;
        for &t in sched {
            match t {
                0 | 1 => {
                    let batch = if t == 0 { W0[pc[t]] } else { W1[pc[t]] };
                    dm.update_edges(batch.iter().copied()).unwrap();
                    for &(i, j, op) in batch {
                        match op {
                            Some(v) => {
                                oracle.insert((i, j), v);
                            }
                            None => {
                                oracle.remove(&(i, j));
                            }
                        }
                    }
                }
                2 => {
                    let coord = [(0, 0), (1, 1)][pc[t]];
                    let got = dm.read(coord.0, coord.1);
                    assert_eq!(
                        got,
                        oracle.get(&coord).copied(),
                        "tracked read disagreed with the oracle at {coord:?}"
                    );
                }
                _ => unreachable!(),
            }
            pc[t] += 1;
            // Merges (policy-triggered or not) may fire at any step;
            // they must never change the visible view.
            assert!(dm.merges() >= merges_seen, "merge count regressed");
            merges_seen = dm.merges();
            assert_eq!(dm.nvals(), oracle.len(), "nvals drifted from exact");
        }
        any_auto_merge |= merges_seen > 0;
        // Settle and compare the full 4x4 view against the oracle.
        dm.settle();
        assert!(dm.is_settled());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    dm.get(i, j),
                    oracle.get(&(i, j)).copied(),
                    "settled view lost or invented ({i},{j})"
                );
            }
        }
        assert_eq!(dm.nvals(), oracle.len());
    });
    assert_eq!(explored, 90); // 6!/(2!·2!·2!)
    assert!(
        any_auto_merge,
        "thresholds never fired: the model is not exercising auto-merge"
    );
}
