//! Grant order of the wait lists against the naive first-fit scan.
//!
//! The engine grants network resources through per-resource wait lists
//! (`replay::grant`); `simulate_reference` still runs the naive scan
//! over every pending message after every send, match and release. The
//! two must agree bit for bit, so every replay here is compared through
//! `render_exact`. The traces are seeded and built to contend: every
//! rank fires several non-blocking sends per phase at random peers,
//! some receives are posted only after a compute burst (so rendezvous
//! sends sit unmatched and are paired later), and message sizes
//! straddle the eager threshold.

use overlap_sim::apps::registry;
use overlap_sim::core::presets::marenostrum_for;
use overlap_sim::machine::replay::simulate_reference;
use overlap_sim::machine::{
    render_exact, replay_scale, simulate, simulate_source, Platform, Topology,
};
use overlap_sim::trace::record::{Record, SendMode};
use overlap_sim::trace::{Bytes, Instructions, Rank, ReqId, Tag, Trace, TransferId};

/// SplitMix64, so every trace is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A seeded contended trace on `nranks` ranks. Each phase every rank
/// posts some receives, fires 1–4 isends at random peers, computes,
/// posts its remaining receives, and waits on every request. All
/// receives of a phase precede its waits, so the trace completes in
/// both send modes; tags are unique per phase, so matching is
/// unambiguous.
fn contended(seed: u64, nranks: usize) -> Trace {
    let mut rng = Rng(seed ^ 0x6772_616e_7473);
    let mut trace = Trace::new(nranks);
    let mut next_req = vec![0u64; nranks];
    let mut next_transfer = vec![0u32; nranks];
    let mut tag = 0u32;
    for _phase in 0..3 {
        // (src, dst, tag, bytes, mode)
        let mut msgs = Vec::new();
        for src in 0..nranks {
            for _ in 0..1 + rng.below(4) {
                let dst = (src + 1 + rng.below(nranks as u64 - 1) as usize) % nranks;
                let bytes = 64u64 << rng.below(13);
                let mode = if rng.below(100) < 35 {
                    SendMode::Rendezvous
                } else {
                    SendMode::Eager
                };
                msgs.push((src, dst, Tag::user(tag % Tag::MAX_USER), bytes, mode));
                tag += 1;
            }
        }
        for r in 0..nranks {
            let mut reqs = Vec::new();
            let mut early = Vec::new();
            let mut late = Vec::new();
            for &(src, dst, t, bytes, _) in &msgs {
                if dst == r {
                    let rec = (src, t, bytes);
                    if rng.below(2) == 0 {
                        early.push(rec);
                    } else {
                        late.push(rec);
                    }
                }
            }
            let mut sends: Vec<_> = msgs.iter().filter(|m| m.0 == r).copied().collect();
            rng.shuffle(&mut sends);
            rng.shuffle(&mut early);
            rng.shuffle(&mut late);
            let mut posts: Vec<Record> = Vec::new();
            let mut irecv =
                |r: usize, (src, t, bytes): (usize, Tag, u64), reqs: &mut Vec<ReqId>| {
                    let req = ReqId(next_req[r]);
                    next_req[r] += 1;
                    next_transfer[r] += 1;
                    reqs.push(req);
                    Record::IRecv {
                        src: Rank(src as u32),
                        tag: t,
                        bytes: Bytes(bytes),
                        req,
                        transfer: TransferId::new(Rank(r as u32), next_transfer[r] - 1),
                    }
                };
            for rec in early {
                posts.push(irecv(r, rec, &mut reqs));
            }
            let late_posts: Vec<Record> = late
                .into_iter()
                .map(|rec| irecv(r, rec, &mut reqs))
                .collect();
            for (_, dst, t, bytes, mode) in sends {
                let req = ReqId(next_req[r]);
                next_req[r] += 1;
                next_transfer[r] += 1;
                reqs.push(req);
                posts.push(Record::ISend {
                    dst: Rank(dst as u32),
                    tag: t,
                    bytes: Bytes(bytes),
                    mode,
                    req,
                    transfer: TransferId::new(Rank(r as u32), next_transfer[r] - 1),
                });
            }
            // sends and early receives interleave in a seeded order
            rng.shuffle(&mut posts);
            let rt = trace.rank_mut(Rank(r as u32));
            for rec in posts {
                rt.push(rec);
            }
            rt.push(Record::Compute {
                instr: Instructions(10_000 + rng.below(2_000_000)),
            });
            for rec in late_posts {
                rt.push(rec);
            }
            rng.shuffle(&mut reqs);
            for req in reqs {
                rt.push(Record::Wait { req });
            }
        }
    }
    trace
}

/// The platforms the suite replays on: bus counts and port counts
/// (bus model), the eager threshold, multi-core nodes, a capped WAN,
/// and the flow-level crossbar and fat-tree.
fn platforms() -> Vec<(String, Platform)> {
    let mut out = Vec::new();
    for buses in [0u32, 1, 2, 3] {
        for ports in [1u32, 2] {
            let p = Platform {
                buses,
                input_ports: ports,
                output_ports: ports,
                ..Platform::default()
            };
            out.push((format!("bus {buses} ports {ports}"), p.clone()));
            out.push((
                format!("bus {buses} ports {ports} eager<=4KiB"),
                Platform {
                    eager_threshold_bytes: Some(4096),
                    ..p.clone()
                },
            ));
            out.push((
                format!("bus {buses} ports {ports} 2 ranks/node"),
                p.with_nodes(2, 2000.0, 0.5),
            ));
            out.push((
                format!("bus {buses} ports {ports} wan"),
                p.with_nodes(2, 2000.0, 0.5)
                    .with_machines(2, 10.0, 1000.0, 1),
            ));
        }
    }
    for ports in [1u32, 2] {
        let p = Platform {
            input_ports: ports,
            output_ports: ports,
            ..Platform::default()
        };
        out.push((
            format!("crossbar ports {ports}"),
            p.with_topology(Topology::Crossbar),
        ));
        out.push((
            format!("fat-tree:4:2 ports {ports}"),
            p.with_topology(Topology::FatTree {
                radix: 4,
                oversubscription: 2,
            }),
        ));
    }
    out
}

#[test]
fn wait_lists_grant_exactly_like_the_naive_scan() {
    let mut contended_replays = 0;
    for seed in 0..12u64 {
        let nranks = [6, 8][seed as usize % 2];
        let trace = contended(seed, nranks);
        for (label, platform) in platforms() {
            let fast = simulate(&trace, &platform);
            let naive = simulate_reference(&trace, &platform);
            assert_eq!(
                render_exact(&fast),
                render_exact(&naive),
                "seed {seed} on {label}: wait lists diverged from the naive scan"
            );
            let res = fast.unwrap_or_else(|e| panic!("seed {seed} on {label}: {e}"));
            if res.network.queue_seconds > 0.0 {
                contended_replays += 1;
            }
        }
    }
    // the suite is only as good as the queueing it provokes
    assert!(
        contended_replays > 300,
        "only {contended_replays} replays ever queued for a resource"
    );
}

#[test]
fn late_matched_rendezvous_keeps_its_initiation_order() {
    // Ranks 0 and 1 both send rendezvous to rank 2 (one input port).
    // Rank 0 initiates first, but rank 2 posts its receive for it only
    // later, after rank 1's eager send has queued behind a long
    // transfer. Once paired, rank 0's message must still rank ahead of
    // every message initiated after it.
    let mut t = Trace::new(4);
    let send = |dst: u32, tag: u32, bytes: u64, mode, req: u64, s: u32| Record::ISend {
        dst: Rank(dst),
        tag: Tag::user(tag),
        bytes: Bytes(bytes),
        mode,
        req: ReqId(req),
        transfer: TransferId::new(Rank(99), s),
    };
    let recv = |src: u32, tag: u32, bytes: u64, req: u64, s: u32| Record::IRecv {
        src: Rank(src),
        tag: Tag::user(tag),
        bytes: Bytes(bytes),
        req: ReqId(req),
        transfer: TransferId::new(Rank(98), s),
    };
    let r0 = t.rank_mut(Rank(0));
    r0.push(send(2, 0, 100_000, SendMode::Rendezvous, 0, 0));
    r0.push(Record::Wait { req: ReqId(0) });
    let r1 = t.rank_mut(Rank(1));
    r1.push(Record::Compute {
        instr: Instructions(10_000),
    });
    r1.push(send(2, 1, 100_000, SendMode::Eager, 0, 1));
    r1.push(Record::Wait { req: ReqId(0) });
    let r3 = t.rank_mut(Rank(3));
    r3.push(send(2, 3, 1_000_000, SendMode::Eager, 0, 2));
    r3.push(Record::Wait { req: ReqId(0) });
    let r2 = t.rank_mut(Rank(2));
    r2.push(recv(3, 3, 1_000_000, 0, 3));
    r2.push(recv(1, 1, 100_000, 1, 4));
    r2.push(Record::Compute {
        instr: Instructions(100_000),
    });
    r2.push(recv(0, 0, 100_000, 2, 5));
    for req in 0..3 {
        r2.push(Record::Wait { req: ReqId(req) });
    }
    for buses in [0, 1] {
        let p = Platform {
            buses,
            ..Platform::default()
        };
        assert_eq!(
            render_exact(&simulate(&t, &p)),
            render_exact(&simulate_reference(&t, &p)),
            "buses {buses}"
        );
    }
}

#[test]
fn grant_steps_stay_linear_in_transfers() {
    // The naive scan took ~28.6 acquire attempts per transfer at 1k
    // ranks and grew linearly with the rank count; the wait lists try
    // each waiting message only when a resource it needs comes free.
    let entry = registry::by_name("ml-allreduce").unwrap();
    let platform = marenostrum_for("ml-allreduce");
    assert_eq!(platform.buses, 0, "the preset is ports-only");
    for ranks in [1_000, 4_000] {
        let source = entry.source(ranks).unwrap();
        let rep = replay_scale(source.as_ref(), &platform).unwrap();
        assert!(
            rep.grant_steps >= rep.transfers,
            "{ranks} ranks: every transfer is tried at least once"
        );
        assert!(
            rep.grant_steps <= 2 * rep.transfers,
            "{ranks} ranks: {} grant steps for {} transfers",
            rep.grant_steps,
            rep.transfers
        );
    }
}

#[test]
fn bus_capped_scale_replay_matches_the_full_stream() {
    // summary mode recycles message slots, so its wait lists order by
    // initiation sequence, not slot id; a 4-bus cap exercises the pool
    // list on top of the port lists
    let entry = registry::by_name("ml-allreduce").unwrap();
    let source = entry.source(256).unwrap();
    let platform = marenostrum_for("ml-allreduce").with_buses(4);
    let full = simulate_source(source.as_ref(), &platform).unwrap();
    let scale = replay_scale(source.as_ref(), &platform).unwrap();
    assert_eq!(
        scale.runtime.as_secs().to_bits(),
        full.runtime.as_secs().to_bits()
    );
    assert_eq!(scale.events_processed, full.events_processed);
    assert_eq!(scale.transfers, full.network.transfers as u64);
}
