//! Bit-identity of the incremental flow engine against the
//! from-scratch reference solver, pinned on the committed trace
//! fixtures across every topology family.
//!
//! The incremental max-min allocator and the dense replay state are
//! pure performance work: `simulate` must produce exactly the same
//! replay — every timestamp, timeline, transfer, link statistic, and
//! engine counter — as `simulate_reference`, which forces the original
//! from-scratch solver (and the naive first-fit grant scan). Any
//! divergence here is a correctness bug in the incremental path, never
//! an acceptable tolerance.

use overlap_sim::machine::replay::simulate_reference;
use overlap_sim::machine::{simulate, Platform, SimResult, Topology};
use overlap_sim::trace::text;
use std::path::PathBuf;

fn fixture(name: &str) -> overlap_sim::trace::Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let content = std::fs::read_to_string(&path).unwrap();
    text::parse(&content).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Every observable of a replay, rendered exactly (float Debug output
/// is round-trip precise, so equal strings mean equal bits).
fn full_render(sim: &SimResult) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {} {} {}",
        sim.runtime,
        sim.totals,
        sim.timelines,
        sim.comms,
        sim.markers,
        sim.network,
        sim.links,
        sim.events_processed,
        sim.queue_peak,
        sim.stale_events,
    )
}

fn topologies(nranks: usize) -> Vec<(&'static str, Topology)> {
    let torus = match nranks {
        4 => Topology::Torus { dims: vec![2, 2] },
        8 => Topology::Torus {
            dims: vec![2, 2, 2],
        },
        n => panic!("no torus shape for {n} ranks"),
    };
    vec![
        ("crossbar", Topology::Crossbar),
        (
            "fat-tree",
            Topology::FatTree {
                radix: 4,
                oversubscription: 1,
            },
        ),
        ("torus", torus),
    ]
}

#[test]
fn incremental_engine_matches_reference_solver_on_fixtures() {
    for name in ["sweep3d_4r.trf", "nas_cg_8r.trf"] {
        let trace = fixture(name);
        for (label, topo) in topologies(trace.nranks()) {
            let platform = Platform::default().with_topology(topo);
            let fast = simulate(&trace, &platform).unwrap();
            let reference = simulate_reference(&trace, &platform).unwrap();
            assert_eq!(
                full_render(&fast),
                full_render(&reference),
                "{name} on {label}: incremental engine diverged from reference solver"
            );
        }
    }
}

#[test]
fn bus_model_replays_are_unaffected_by_solver_choice() {
    // under the bus model there is no flow solver at all, but the
    // reference entry still differs: it grants through the naive
    // first-fit scan instead of the wait lists, and must agree with
    // `simulate` bit for bit
    for name in ["sweep3d_4r.trf", "nas_cg_8r.trf"] {
        let trace = fixture(name);
        let platform = Platform::default();
        let fast = simulate(&trace, &platform).unwrap();
        let reference = simulate_reference(&trace, &platform).unwrap();
        assert_eq!(full_render(&fast), full_render(&reference), "{name}");
        assert_eq!(fast.stale_events, 0, "{name}: bus model has no flows");
    }
}

#[test]
fn stale_event_counter_accounts_for_reshared_estimates() {
    // The fixtures replay with single ports per node, so concurrent
    // flows never share a link and no estimate ever goes stale (the
    // committed goldens pin stale_events == 0 there). Force contention
    // instead: four senders into one receiver with wide-open ports all
    // share the receiver's down link, so every departure re-estimates
    // the survivors and the superseded completions surface as stale
    // pops.
    use overlap_sim::trace::record::{Record, SendMode};
    use overlap_sim::trace::{Bytes, Rank, Tag, Trace, TransferId};
    let n = 5usize;
    let mut trace = Trace::new(n);
    for src in 0..4u32 {
        trace.rank_mut(Rank(src)).push(Record::Send {
            dst: Rank(4),
            tag: Tag::user(src),
            bytes: Bytes(1_000_000),
            mode: SendMode::Eager,
            transfer: TransferId::new(Rank(src), 0),
        });
        trace.rank_mut(Rank(4)).push(Record::Recv {
            src: Rank(src),
            tag: Tag::user(src),
            bytes: Bytes(1_000_000),
            transfer: TransferId::new(Rank(4), src),
        });
    }
    let platform = Platform {
        input_ports: 4,
        output_ports: 4,
        ..Platform::default().with_topology(Topology::Crossbar)
    };
    let sim = simulate(&trace, &platform).unwrap();
    assert!(
        sim.stale_events > 0,
        "4 flows sharing a down link must shed estimates as they finish"
    );
    assert!(sim.queue_peak > 0);
    assert!(
        sim.stale_events < sim.events_processed,
        "stale {} of {} total",
        sim.stale_events,
        sim.events_processed
    );
    // the reference engine counts the identical stale pops
    let reference = simulate_reference(&trace, &platform).unwrap();
    assert_eq!(full_render(&sim), full_render(&reference));
}
