//! Property-based tests across the pipeline, driven by the synthetic
//! pattern workload: for arbitrary production/consumption shapes,
//! message sizes and chunk counts, the invariants of the framework must
//! hold.
//!
//! Off by default; run with `cargo test --features proptest-tests`.
#![cfg(feature = "proptest-tests")]

use overlap_sim::apps::synthetic::{Consumption, PatternApp, Production};
use overlap_sim::core::chunk::ChunkPolicy;
use overlap_sim::core::pipeline::build_variants;
use overlap_sim::instr::trace_app;
use overlap_sim::machine::{simulate, Platform};
use overlap_sim::trace::{synth, validate};
use proptest::prelude::*;

fn production_strategy() -> impl Strategy<Value = Production> {
    prop_oneof![
        Just(Production::Linear),
        (0.0f64..0.95, 0.0f64..1.0).prop_map(|(a, b)| {
            let from = a;
            let to = (a + 0.01 + b * (1.0 - a - 0.01)).min(1.0);
            Production::Window { from, to }
        }),
        (0.0f64..0.9, 0.05f64..2.0).prop_map(|(start, exp)| Production::Profile { start, exp }),
    ]
}

fn consumption_strategy() -> impl Strategy<Value = Consumption> {
    prop_oneof![
        Just(Consumption::Linear),
        (0.0f64..0.9).prop_map(|indep| Consumption::CopyAfter { indep }),
        (0.0f64..0.9, 0.0f64..1.0).prop_map(|(a, b)| {
            let from = a;
            let to = (a + 0.01 + b * (1.0 - a - 0.01)).min(1.0);
            Consumption::Window { from, to }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case traces + transforms + simulates
        ..ProptestConfig::default()
    })]

    #[test]
    fn pipeline_invariants_hold_for_arbitrary_patterns(
        prod in production_strategy(),
        cons in consumption_strategy(),
        elems in 1usize..400,
        iters in 1u32..4,
        phase in 10_000u64..300_000,
        chunks in 1u32..9,
        buses in 0u32..5,
    ) {
        let app = PatternApp {
            elems,
            iters,
            phase_instr: phase,
            production: prod,
            consumption: cons,
        };
        let run = trace_app(&app, 4).unwrap();
        prop_assert!(validate(&run.trace).is_empty());

        let policy = ChunkPolicy::with_chunks(chunks);
        let bundle = build_variants(&run, &policy);
        for t in [&bundle.overlapped, &bundle.ideal] {
            // structurally valid
            prop_assert!(validate(t).is_empty());
            // per-rank compute preserved
            for r in 0..4 {
                prop_assert_eq!(
                    t.ranks[r].total_compute(),
                    run.trace.ranks[r].total_compute()
                );
            }
        }

        // every variant simulates without deadlock, and nothing beats
        // the compute critical path
        let platform = Platform::marenostrum(buses);
        let floor = platform.compute_time(run.trace.critical_compute()).as_secs();
        for t in [&bundle.original, &bundle.overlapped, &bundle.ideal] {
            let sim = simulate(t, &platform).unwrap();
            prop_assert!(sim.runtime() >= floor - 1e-12);
        }
    }

    #[test]
    fn runtime_monotone_in_bandwidth_and_buses(
        elems in 8usize..300,
        phase in 20_000u64..200_000,
    ) {
        let app = PatternApp {
            elems,
            iters: 3,
            phase_instr: phase,
            production: Production::Linear,
            consumption: Consumption::Linear,
        };
        let run = trace_app(&app, 4).unwrap();
        // bandwidth monotonicity
        let mut last = f64::INFINITY;
        for bw in [5.0, 25.0, 250.0, 2500.0] {
            let r = simulate(&run.trace, &Platform::marenostrum(0).with_bandwidth(bw))
                .unwrap()
                .runtime();
            prop_assert!(r <= last + 1e-12, "bw={bw}: {r} > {last}");
            last = r;
        }
        // bus monotonicity (more buses never hurt)
        let mut last = f64::INFINITY;
        for buses in [1u32, 2, 4, 0] {
            let r = simulate(&run.trace, &Platform::marenostrum(buses))
                .unwrap()
                .runtime();
            prop_assert!(r <= last + 1e-12, "buses={buses}: {r} > {last}");
            last = r;
        }
    }

    #[test]
    fn text_roundtrip_for_arbitrary_transformed_traces(
        elems in 1usize..200,
        chunks in 1u32..9,
    ) {
        let app = PatternApp {
            elems,
            iters: 2,
            phase_instr: 50_000,
            production: Production::Linear,
            consumption: Consumption::Linear,
        };
        let run = trace_app(&app, 2).unwrap();
        let bundle = build_variants(&run, &ChunkPolicy::with_chunks(chunks));
        for t in [&bundle.original, &bundle.overlapped, &bundle.ideal] {
            let parsed = overlap_sim::trace::text::parse(
                &overlap_sim::trace::text::emit(t),
            ).unwrap();
            prop_assert_eq!(t, &parsed);
        }
    }

    /// The seeded application generator (`synth`) yields a valid trace
    /// for every seed.
    #[test]
    fn generated_apps_are_valid(seed in 0u64..u64::MAX) {
        let trace = synth::generate(seed);
        let errors = validate(&trace);
        prop_assert!(errors.is_empty(), "validation errors: {:?}", errors);
    }
}
