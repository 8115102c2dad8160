//! Static audits of the real workspace's lock-ordering claims — the
//! invariants the code comments assert, proved over the source instead
//! of hoped-for at runtime:
//!
//! * `MigrationMap` and `ParentMap` never nest two of their own shards
//!   (same-class nesting is governed by lockdep's order-key discipline,
//!   and both structures are written to avoid it entirely — the
//!   `ParentMap` clone snapshots a shard before inserting into the
//!   target);
//! * the PR that fixed the partition snapshot ABBA keeps the committed
//!   direction: PartitionAlloc -> PartitionPages only.

fn graph() -> lint::lockgraph::StaticGraph {
    let files = lint::source::load_sources(&lint::source::repo_root());
    assert!(!files.is_empty());
    lint::lockgraph::analyze(&files).graph
}

#[test]
fn sharded_classes_never_nest_within_themselves() {
    let g = graph();
    for class in ["MigrationShard", "TraversalShard"] {
        assert!(
            !g.has(class, class),
            "{class} nests within itself somewhere: {:?}",
            g.edges.get(&(class.to_string(), class.to_string()))
        );
    }
}

#[test]
fn partition_snapshot_abba_fix_holds() {
    let g = graph();
    assert!(
        g.has("PartitionAlloc", "PartitionPages"),
        "the committed alloc -> pages direction must exist"
    );
    assert!(
        !g.has("PartitionPages", "PartitionAlloc"),
        "pages -> alloc would re-open the snapshot ABBA: {:?}",
        g.edges
            .get(&("PartitionPages".to_string(), "PartitionAlloc".to_string()))
    );
}
