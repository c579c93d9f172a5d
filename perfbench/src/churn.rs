//! `rtr-churn`: the write path. The 6/1 VRP set at scale 1 is served
//! from one `FanoutServer` to a fleet of in-memory `RouterClient`
//! sessions that follow a seeded `Mixed` churn timeline through Serial
//! Notify, Serial Query and delta. In every epoch a seeded share of the
//! sessions reconnects and resynchronizes from a Reset Query, and
//! `SnapshotChainEngine` revalidates the whole route table. Beside the
//! fleet, one `LiveSession` makes the `churn` bin's own calls: a sync
//! from scratch, then `apply_epoch` for every epoch.
//!
//! A round starts from a fresh cache, fleet and live session: every
//! router first synchronizes from a Reset Query, then the fleet follows
//! the timeline. An epoch is closed-loop: the cache update, then each
//! router in turn until it has converged, then the live session's epoch,
//! then the chain's revalidation.

use std::collections::BTreeSet;
use std::time::Instant;

use rayon::prelude::*;
use rpki_datasets::{
    ChurnConfig, ChurnGenerator, ChurnProfile, ChurnTimeline, GeneratorConfig, World,
};
use rpki_roa::{RouteOrigin, Vrp};
use rpki_rov::{ChainConfig, FrozenVrpIndex, SnapshotChainEngine, ValidationState};
use rpki_rtr::cache::CacheServer;
use rpki_rtr::pdu::PROTOCOL_V1;
use rpki_rtr::server::{FanoutServer, SessionId};
use rpki_rtr::wire::decode_frame;
use rpki_rtr::{LiveSession, RouterClient};

use crate::trace::span;
use crate::{median, run_rounds, setup, Ctx, Report, Rng, RoundTimes};

const SESSIONS: usize = 200;
const EPOCHS: usize = 16;
const EVENTS_PER_EPOCH: usize = 64;
/// Sessions that reconnect in every epoch.
const RECONNECTS_PER_EPOCH: usize = 4;
/// Query/response exchanges a router may need to converge.
const MAX_EXCHANGES: usize = 8;
const SESSION_ID: u16 = 2017;

struct Inputs {
    /// The distinct announced pairs of 6/1, sorted.
    routes: Vec<RouteOrigin>,
    timeline: ChurnTimeline,
    /// Per epoch, the sessions that reconnect, ascending.
    reconnects: Vec<Vec<usize>>,
    initial_serial: u32,
    engine: SnapshotChainEngine,
}

fn build(ctx: &Ctx) -> Inputs {
    let world = span("datasets.world", || {
        World::generate(GeneratorConfig {
            seed: ctx.derive(21),
            scale: 1.0,
            ..GeneratorConfig::default()
        })
    });
    let (snap, vrps) = span("datasets.snapshot", || {
        let snap = world.snapshot(world.config.weeks - 1);
        let vrps = snap.vrps();
        (snap, vrps)
    });
    let mut routes = snap.routes;
    routes.sort_unstable();
    routes.dedup();
    let timeline = span("datasets.churn_generate", || {
        ChurnGenerator::new(
            vrps.iter().copied(),
            ChurnConfig {
                seed: ctx.derive(22),
                epochs: EPOCHS,
                events_per_epoch: EVENTS_PER_EPOCH,
                profile: ChurnProfile::Mixed,
                ..ChurnConfig::default()
            },
        )
        .generate()
    });
    let mut rng = Rng::new(ctx.derive(23));
    let reconnects = (0..EPOCHS)
        .map(|_| {
            let mut picked = BTreeSet::new();
            while picked.len() < RECONNECTS_PER_EPOCH {
                picked.insert(rng.below(SESSIONS));
            }
            picked.into_iter().collect()
        })
        .collect();
    let engine = span("rov.chain_new", || {
        SnapshotChainEngine::new(
            routes.iter().copied(),
            timeline.initial.iter().copied(),
            ChainConfig::default(),
        )
    });
    Inputs {
        routes,
        timeline,
        reconnects,
        initial_serial: ctx.derive(24) as u32,
        engine,
    }
}

/// One fleet member: its fan-out session, the router state machine and
/// its private cache→router byte pipe.
struct Member {
    id: SessionId,
    router: RouterClient,
    pipe: Vec<u8>,
}

#[derive(Default, Clone, Copy, PartialEq, Debug)]
struct Wire {
    frames: u64,
    to_router: u64,
    to_cache: u64,
    reset_syncs: u64,
    syncs: u64,
    sync_failures: u64,
}

/// Decodes and applies every complete frame in the member's pipe;
/// `Ok(true)` once an End of Data completed a response.
fn absorb(member: &mut Member, wire: &mut Wire) -> Result<bool, String> {
    span("rtr.router_apply", || {
        let mut synced = false;
        let mut used = 0;
        while let Some(frame) =
            decode_frame(&member.pipe[used..]).map_err(|e| format!("undecodable frame: {e:?}"))?
        {
            let pdu = frame.pdu.to_owned();
            used += frame.len;
            wire.frames += 1;
            synced = member
                .router
                .handle(&pdu)
                .map_err(|e| format!("router rejected {pdu:?}: {e:?}"))?;
        }
        member.pipe.drain(..used);
        Ok(synced)
    })
}

/// One synchronization, one outstanding query at a time like a real
/// router: take pending output (a notify), send the router's query, and
/// apply the answer until it completes.
fn synchronize(
    server: &mut FanoutServer,
    member: &mut Member,
    wire: &mut Wire,
) -> Result<(), String> {
    wire.syncs += 1;
    let mut query = Vec::new();
    for _ in 0..MAX_EXCHANGES {
        wire.to_router += span("rtr.serve", || {
            server.drain_output(member.id, &mut member.pipe)
        }) as u64;
        absorb(member, wire)?;
        query.clear();
        member
            .router
            .query()
            .as_wire()
            .encode_into(PROTOCOL_V1, &mut query);
        wire.to_cache += query.len() as u64;
        wire.to_router += span("rtr.serve", || {
            server.receive(member.id, &query);
            server.drain_output(member.id, &mut member.pipe)
        }) as u64;
        if absorb(member, wire)? {
            return Ok(());
        }
    }
    Err(format!("session {} did not converge", member.id))
}

/// A new session and router, synchronized from a Reset Query.
fn connect(server: &mut FanoutServer, wire: &mut Wire) -> (Member, Result<(), String>) {
    span("rtr.reset_sync", || {
        let mut member = Member {
            id: server.open_session(),
            router: RouterClient::new(),
            pipe: Vec::new(),
        };
        wire.reset_syncs += 1;
        let result = synchronize(server, &mut member, wire);
        // A full image passed through the pipe; keep the fleet small.
        member.pipe.shrink_to_fit();
        (member, result)
    })
}

struct Round {
    fleet: Vec<Member>,
    live: LiveSession,
    engine: SnapshotChainEngine,
    server: FanoutServer,
    errors: Vec<String>,
    epoch_s: Vec<f64>,
    changes: Vec<usize>,
    refreezes: usize,
    wire: Wire,
    /// Bytes moved in both directions during the epochs (the initial
    /// synchronization excluded).
    epoch_bytes: u64,
}

fn round(inputs: &Inputs, (mut server, mut engine): (FanoutServer, SnapshotChainEngine)) -> Round {
    let mut wire = Wire::default();
    let mut errors = Vec::new();
    let mut fleet = Vec::with_capacity(SESSIONS);
    for _ in 0..SESSIONS {
        let (member, result) = connect(&mut server, &mut wire);
        errors.extend(result.err());
        fleet.push(member);
    }
    let (mut live, result) = span("rtr.live_sync", || {
        let mut live = LiveSession::new(SESSION_ID, &inputs.timeline.initial);
        let result = live.synchronize();
        (live, result)
    });
    wire.syncs += 1;
    errors.extend(result.err().map(|e| format!("live session sync: {e:?}")));
    let before = wire.to_router + wire.to_cache;
    let mut epoch_s = Vec::with_capacity(EPOCHS);
    let mut changes = Vec::with_capacity(EPOCHS);
    let mut refreezes = 0;
    for (epoch, reconnects) in inputs.timeline.epochs.iter().zip(&inputs.reconnects) {
        let t = Instant::now();
        span("rtr.update", || {
            server.update_delta_and_notify(&epoch.announced, &epoch.withdrawn)
        });
        let mut next = reconnects.iter().peekable();
        for (i, member) in fleet.iter_mut().enumerate() {
            let result = if next.peek() == Some(&&i) {
                next.next();
                server.close_session(member.id);
                let (fresh, result) = connect(&mut server, &mut wire);
                *member = fresh;
                result
            } else {
                synchronize(&mut server, member, &mut wire)
            };
            errors.extend(result.err());
        }
        let result = span("rtr.live_apply", || {
            live.apply_epoch(&epoch.announced, &epoch.withdrawn)
        });
        wire.syncs += 1;
        errors.extend(result.err().map(|e| format!("live session epoch: {e:?}")));
        let report = span("rov.chain_apply", || {
            engine.apply_epoch(&epoch.announced, &epoch.withdrawn)
        });
        epoch_s.push(t.elapsed().as_secs_f64());
        changes.push(report.changes.len());
        refreezes += usize::from(report.refroze);
    }
    wire.sync_failures = errors.len() as u64;
    Round {
        fleet,
        live,
        engine,
        server,
        errors,
        epoch_s,
        changes,
        refreezes,
        epoch_bytes: wire.to_router + wire.to_cache - before,
        wire,
    }
}

/// The validation state of every route against `vrps`, from scratch.
fn states_from_scratch(vrps: &BTreeSet<Vrp>, routes: &[RouteOrigin]) -> Vec<ValidationState> {
    let index = FrozenVrpIndex::from_vrps(vrps.iter().copied());
    routes.par_iter().map(|r| index.validate(r)).collect()
}

/// The benchmark's own replay of the timeline: the VRP set at the start
/// and after every epoch.
fn replay(timeline: &ChurnTimeline) -> Vec<BTreeSet<Vrp>> {
    let mut set: BTreeSet<Vrp> = timeline.initial.iter().copied().collect();
    let mut sets = vec![set.clone()];
    for epoch in &timeline.epochs {
        for v in &epoch.withdrawn {
            set.remove(v);
        }
        set.extend(epoch.announced.iter().copied());
        sets.push(set.clone());
    }
    sets
}

fn check_fleet(inputs: &Inputs, r: &Round, final_set: &BTreeSet<Vrp>, report: &mut Report) {
    for e in &r.errors {
        report.check(false, || e.clone());
    }
    let serial = inputs.initial_serial.wrapping_add(EPOCHS as u32);
    for (i, m) in r.fleet.iter().enumerate() {
        report.check(
            m.router.vrps() == final_set && m.router.serial() == serial,
            || {
                format!(
                    "router {i}: {} VRPs at serial {} vs the replay's {} at {serial}",
                    m.router.vrps().len(),
                    m.router.serial(),
                    final_set.len()
                )
            },
        );
    }
    // The live session's cache starts at serial 0.
    let live = r.live.router();
    report.check(
        live.vrps() == final_set && live.serial() == EPOCHS as u32,
        || {
            format!(
                "live session: {} VRPs at serial {} vs the replay's {} at {EPOCHS}",
                live.vrps().len(),
                live.serial(),
                final_set.len()
            )
        },
    );
}

fn check_first(inputs: &Inputs, r: &Round, sets: &[BTreeSet<Vrp>], report: &mut Report) {
    check_fleet(inputs, r, sets.last().expect("final set"), report);
    let mut before = states_from_scratch(&sets[0], &inputs.routes);
    for (e, set) in sets[1..].iter().enumerate() {
        let after = states_from_scratch(set, &inputs.routes);
        let diff = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        report.check(diff == r.changes[e], || {
            format!(
                "epoch {e}: chain reports {} state changes, from scratch {diff}",
                r.changes[e]
            )
        });
        before = after;
    }
    let chain = r.engine.states();
    let same = chain.len() == inputs.routes.len()
        && chain
            .iter()
            .zip(inputs.routes.iter().zip(&before))
            .all(|((route, state), (want_route, want))| route == want_route && state == want);
    report.check(same, || {
        "final chain states differ from a from-scratch validation".into()
    });
}

/// What later rounds must reproduce and the metrics read from a round.
#[derive(PartialEq)]
struct Summary {
    changes: Vec<usize>,
    refreezes: usize,
    wire: Wire,
    epoch_bytes: u64,
    stats: rpki_rtr::FanoutStats,
}

impl Round {
    fn summary(&self) -> Summary {
        Summary {
            changes: self.changes.clone(),
            refreezes: self.refreezes,
            wire: self.wire,
            epoch_bytes: self.epoch_bytes,
            stats: self.server.stats(),
        }
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> (f64, RoundTimes) {
    let (inputs, setup_s) = setup(ctx, 5, || build(ctx));
    let sets = replay(&inputs.timeline);
    let final_set = sets.last().expect("final set").clone();
    let mut first: Option<Summary> = None;
    let mut epoch_s = Vec::new();
    let mut epoch_mean_s = Vec::new();
    let times = run_rounds(
        ctx,
        || {
            let cache = CacheServer::with_initial_serial(
                SESSION_ID,
                &inputs.timeline.initial,
                inputs.initial_serial,
            );
            (FanoutServer::new(cache), inputs.engine.clone())
        },
        |_, prepared| round(&inputs, prepared),
        |traced, r| {
            if !traced {
                epoch_s.extend(&r.epoch_s);
                epoch_mean_s.push(r.epoch_s.iter().sum::<f64>() / r.epoch_s.len() as f64);
            }
            // Operations: every router synchronization and chain epoch.
            report.ops(r.wire.syncs - r.wire.sync_failures + EPOCHS as u64);
            let summary = r.summary();
            match &first {
                None => check_first(&inputs, &r, &sets, report),
                Some(f) => {
                    check_fleet(&inputs, &r, &final_set, report);
                    report.check(summary == *f, || {
                        "state changes or wire traffic changed between rounds".into()
                    });
                }
            }
            // The fleet goes before the next round builds its own.
            drop(r);
            first.get_or_insert(summary);
        },
    );
    let first = first.expect("one round");
    report.set("step_ms", median(&epoch_s) * 1e3);
    report.set("throughput", 1.0 / median(&epoch_mean_s));
    let stats = first.stats;
    report.set("rtr.images_built", stats.images_built as f64);
    report.set("rtr.images_reused", stats.images_reused as f64);
    report.set("rtr.notifies", stats.notifies as f64);
    report.set("rtr.overflow_resets", stats.overflow_resets as f64);
    report.set("rtr.frames_decoded", first.wire.frames as f64);
    report.set("rtr.bytes_to_router", first.wire.to_router as f64);
    report.set("rtr.bytes_to_cache", first.wire.to_cache as f64);
    report.set(
        "rtr.wire_bytes_per_epoch",
        first.epoch_bytes as f64 / EPOCHS as f64,
    );
    report.set("rtr.reset_syncs", first.wire.reset_syncs as f64);
    report.set(
        "rov.chain_state_changes",
        first.changes.iter().sum::<usize>() as f64,
    );
    report.set("rov.chain_refreezes", first.refreezes as f64);
    (setup_s, times)
}
