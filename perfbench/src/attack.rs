//! `attack-grid`: the §4/§5 attack simulation as the `matrix` and
//! `attacks` bins run it — the standard scenario matrix weighted by the
//! census of a small world, the attack experiment at 100% and 50% ROV,
//! the two-attack adoption sweep — plus a destination-sampled
//! forged-origin plan and direct propagations on the 80k-AS topology.
//!
//! The matrix and the experiments are the bins' own
//! `run_par_with_stats` calls, which generate their topologies inside
//! the timed call. `AttackExperiment::adoption_sweep` does not return its
//! `ExecStats`, so the sweep plans, like the 80k plan, are built here on
//! topologies generated in set-up and issued through
//! `Executor::run_with_stats`.

use std::time::Instant;

use bgpsim::routing::Seed;
use bgpsim::{
    Accumulator, AttackExperiment, AttackKind, AttackerStrategy, CellAccumulator, CellStats,
    CompiledPolicies, DeploymentModel, DestinationSampler, ExecStats, Executor, ExperimentReport,
    FractionAccumulator, InternetConfig, MatrixCell, MatrixReport, OriginFilter, PlanTopology,
    Propagation, PropagationEngine, Relationship, RoaConfig, RouteLeak, ScenarioMatrix, Topology,
    TopologyConfig, TopologyFamily, TrialPlan, Workspace,
};
use maxlength_core::vulnerability::{assess_risk, MaxLengthCensus};
use maxlength_core::BgpTable;
use rpki_datasets::{GeneratorConfig, World};
use rpki_prefix::Prefix;
use rpki_roa::Vrp;

use crate::trace::span;
use crate::{median, run_rounds, setup, Ctx, Report, Rng, RoundTimes};

/// The matrix and experiment size the `matrix` and `attacks` bins use.
const N: usize = 2000;
const TRIALS: usize = 30;
const SWEEP: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// Sampled destinations of the 80k plan, and how many of them are also
/// propagated directly and walked.
const INTERNET_DESTINATIONS: usize = 48;
const WALKED: usize = 4;
/// World scale of the census that weights the matrix.
const CENSUS_SCALE: f64 = 0.05;

struct Inputs {
    vrps: Vec<Vrp>,
    bgp: BgpTable,
    matrix: ScenarioMatrix,
    experiment: AttackExperiment,
    /// The experiment's topology, for the sweep plans.
    experiment_topology: Topology,
    internet: Topology,
    internet_seed: u64,
    internet_policies: CompiledPolicies,
}

fn build(ctx: &Ctx) -> Inputs {
    let world = span("datasets.world", || {
        World::generate(GeneratorConfig {
            seed: ctx.derive(11),
            scale: CENSUS_SCALE,
            ..GeneratorConfig::default()
        })
    });
    let (snap, vrps) = span("datasets.snapshot", || {
        let snap = world.snapshot(world.config.weeks - 1);
        let vrps = snap.vrps();
        (snap, vrps)
    });
    let bgp: BgpTable = span("core.bgp_build", || snap.routes.iter().collect());

    let topology_seed = ctx.derive(12);
    let matrix = ScenarioMatrix {
        topologies: TopologyFamily::standard(N)
            .into_iter()
            .map(|f| {
                TopologyFamily::new(TopologyConfig {
                    seed: topology_seed,
                    ..f.config
                })
            })
            .collect(),
        trials: TRIALS,
        ..ScenarioMatrix::small(ctx.derive(13))
    };
    let experiment = AttackExperiment {
        topology: TopologyConfig {
            n: N,
            seed: ctx.derive(14),
            ..TopologyConfig::default()
        },
        trials: TRIALS,
        rov_fraction: 1.0,
        seed: ctx.derive(15),
    };
    let experiment_topology = span("bgpsim.topology_generate", || {
        Topology::generate(experiment.topology)
    });
    let internet_seed = ctx.derive(16);
    let internet = span("bgpsim.internet_generate", || {
        Topology::generate_internet(InternetConfig {
            seed: internet_seed,
            ..InternetConfig::default()
        })
    });
    let internet_policies = CompiledPolicies::compile(
        &DeploymentModel::Uniform { p: 0.75 }.policies(&internet, internet_seed),
    );
    Inputs {
        vrps,
        bgp,
        matrix,
        experiment,
        experiment_topology,
        internet,
        internet_seed,
        internet_policies,
    }
}

struct Round {
    matrix: MatrixReport,
    risk: maxlength_core::vulnerability::RiskAssessment,
    full_rov: ExperimentReport,
    half_rov: ExperimentReport,
    classic_sweep: Vec<f64>,
    forged_sweep: Vec<f64>,
    internet: Vec<CellStats>,
    /// (stats, seconds) per plan, small plans first, the 80k plan last.
    plans: Vec<(ExecStats, f64)>,
    walked: Vec<(usize, usize, Propagation)>,
    workspace_bytes: usize,
}

fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = span(name, f);
    (out, t.elapsed().as_secs_f64())
}

fn fraction_means(accs: &[FractionAccumulator]) -> Vec<f64> {
    accs.iter().map(|a| a.finish().mean).collect()
}

fn round(inputs: &Inputs, ctx: &Ctx) -> Round {
    let executor = Executor::parallel();
    let mut plans = Vec::new();

    let ((matrix, stats), secs) = timed("bgpsim.matrix", || inputs.matrix.run_par_with_stats());
    plans.push((stats, secs));
    let census = span("core.census", || {
        MaxLengthCensus::analyze_par(&inputs.vrps, &inputs.bgp)
    });
    let risk = span("core.assess_risk", || assess_risk(&census, &matrix));

    let mut experiment = |rov_fraction: f64| {
        let e = AttackExperiment {
            rov_fraction,
            ..inputs.experiment
        };
        let ((report, stats), secs) = timed("bgpsim.experiment", || e.run_par_with_stats());
        plans.push((stats, secs));
        report
    };
    let full_rov = experiment(1.0);
    let half_rov = experiment(0.5);

    let mut sweep = |kind: AttackKind, roa: RoaConfig| {
        let plan = TrialPlan::new(
            vec![PlanTopology {
                label: format!("n={N}"),
                topology: &inputs.experiment_topology,
            }],
            vec![&kind as &dyn AttackerStrategy],
            SWEEP
                .iter()
                .map(|&p| DeploymentModel::Uniform { p })
                .collect(),
            vec![roa],
            inputs.experiment.trials,
            inputs.experiment.seed,
        );
        let ((accs, stats), secs) = timed("bgpsim.sweep", || {
            executor.run_with_stats::<FractionAccumulator>(&plan)
        });
        plans.push((stats, secs));
        fraction_means(&accs)
    };
    let classic_sweep = sweep(AttackKind::SubprefixHijack, RoaConfig::Minimal);
    let forged_sweep = sweep(
        AttackKind::ForgedOriginSubprefixHijack,
        RoaConfig::NonMinimalMaxLen,
    );

    // The 80k plan: sampled destinations, both ROA columns.
    let strategy = AttackKind::ForgedOriginSubprefixHijack;
    let plan = TrialPlan::new(
        vec![PlanTopology {
            label: "internet".to_string(),
            topology: &inputs.internet,
        }],
        vec![&strategy as &dyn AttackerStrategy],
        vec![DeploymentModel::Uniform { p: 0.75 }],
        vec![RoaConfig::NonMinimalMaxLen, RoaConfig::Minimal],
        1,
        inputs.internet_seed,
    )
    .with_destination_sampler(&DestinationSampler {
        count: INTERNET_DESTINATIONS,
        seed: inputs.internet_seed,
    });
    let ((accs, stats), secs) = timed("bgpsim.internet_plan", || {
        executor.run_with_stats::<CellAccumulator>(&plan)
    });
    plans.push((stats, secs));
    let internet: Vec<CellStats> = accs.iter().map(|a| a.finish()).collect();

    // Direct propagations of seeded trials of that plan: the forged
    // origin announces the victim's prefix against a minimal ROA.
    let prefix: Prefix = "168.122.0.0/16".parse().expect("static prefix");
    let engine = PropagationEngine::new(&inputs.internet);
    let mut ws = Workspace::new();
    let mut rng = Rng::new(ctx.derive(17));
    let mut walked = Vec::new();
    for _ in 0..WALKED {
        let (victim, attacker) = plan.trial_endpoints(0, rng.below(plan.trials));
        let asn = inputs.internet.asn(victim);
        let vrps = RoaConfig::Minimal.vrps(prefix, 24, asn);
        let filter = OriginFilter::new(&vrps, prefix, &[asn], &inputs.internet_policies);
        let seeds = [Seed::origin(victim, asn), Seed::forged(attacker, asn)];
        let propagation = span("bgpsim.propagate", || {
            engine.propagate(&seeds, &|at: usize, o| filter.accept(at, o), &mut ws)
        });
        walked.push((victim, attacker, propagation));
    }
    Round {
        matrix,
        risk,
        full_rov,
        half_rov,
        classic_sweep,
        forged_sweep,
        internet,
        plans,
        walked,
        workspace_bytes: ws.memory_bytes(),
    }
}

/// Walks every AS's forwarding path with the benchmark's own loop: each
/// path must end at one of the two announcing ASes, visit no AS twice,
/// and be valley-free (up through providers, at most one peer link,
/// then down through customers). Returns the first violation.
fn walk_violation(topology: &Topology, p: &Propagation, ends: [usize; 2]) -> Option<String> {
    let routes = p.routes();
    let mut seen = vec![usize::MAX; routes.len()];
    for from in 0..routes.len() {
        if routes[from].is_none() {
            continue;
        }
        let mut at = from;
        // 0 = climbing, 1 = crossed a peer link, 2 = descending.
        let mut phase = 0u8;
        seen[at] = from;
        while let Some(next) = routes[at].and_then(|r| r.next_hop) {
            if seen[next] == from {
                return Some(format!("forwarding loop from AS {from} at {next}"));
            }
            seen[next] = from;
            if routes[next].is_none() {
                return Some(format!("AS {at} forwards to unrouted AS {next}"));
            }
            phase = match (phase, topology.relationship(at, next)) {
                (0, Some(Relationship::Provider)) => 0,
                (0, Some(Relationship::Peer)) => 1,
                (_, Some(Relationship::Customer)) => 2,
                (_, rel) => {
                    return Some(format!(
                        "valley on the path from AS {from}: {at} -> {next} ({rel:?}) after phase {phase}"
                    ))
                }
            };
            at = next;
        }
        if !ends.contains(&at) {
            return Some(format!(
                "path from AS {from} ends at {at}, not an announcer"
            ));
        }
    }
    None
}

fn check_first(inputs: &Inputs, r: &Round, report: &mut Report) {
    let cell = |report: &ExperimentReport, kind: AttackKind, roa: RoaConfig| {
        report.cell(kind, roa).mean_interception
    };
    let loose = cell(
        &r.full_rov,
        AttackKind::ForgedOriginSubprefixHijack,
        RoaConfig::NonMinimalMaxLen,
    );
    let minimal = cell(
        &r.full_rov,
        AttackKind::ForgedOriginSubprefixHijack,
        RoaConfig::Minimal,
    );
    report.check(loose > 0.99, || {
        format!("forged-origin subprefix hijack vs the non-minimal ROA captures {loose:.4}, not ~1")
    });
    report.check(minimal < 0.01, || {
        format!("forged-origin subprefix hijack vs the minimal ROA captures {minimal:.4}, not ~0")
    });
    // More ROV never raises a forged-origin attack's interception.
    for kind in [
        AttackKind::ForgedOriginPrefixHijack,
        AttackKind::ForgedOriginSubprefixHijack,
    ] {
        for roa in RoaConfig::ALL {
            let (half, full) = (cell(&r.half_rov, kind, roa), cell(&r.full_rov, kind, roa));
            report.check(full <= half + 1e-12, || {
                format!("{kind:?} vs {roa:?}: {half:.4} at 50% ROV but {full:.4} at 100%")
            });
        }
    }
    for pair in r.forged_sweep.windows(2) {
        report.check(pair[1] <= pair[0] + 1e-12, || {
            format!(
                "forged-origin sweep rises with adoption: {:?}",
                r.forged_sweep
            )
        });
    }
    // The route leak is RPKI-valid: identical numbers in every ROA column.
    let leak = RouteLeak.label();
    let leaks: Vec<&MatrixCell> = r
        .matrix
        .cells
        .iter()
        .filter(|c| c.strategy == leak)
        .collect();
    report.check(!leaks.is_empty(), || {
        "no route-leak cells in the matrix".into()
    });
    for c in &leaks {
        let first = leaks
            .iter()
            .find(|d| d.topology == c.topology && d.deployment == c.deployment)
            .expect("itself");
        report.check(c.stats == first.stats, || {
            format!(
                "route leak on {} / {}: {:?} differs across ROA columns",
                c.topology, c.deployment, c.roa
            )
        });
    }
    for (stats, _) in &r.plans {
        report.check(
            stats.footprint_checks == stats.cells_replayed + stats.cells_repropagated,
            || format!("footprint accounting broken: {stats:?}"),
        );
    }
    report.check(
        r.internet.iter().all(|c| c.trials == INTERNET_DESTINATIONS),
        || {
            format!(
                "80k plan cells folded {:?} trials",
                r.internet.iter().map(|c| c.trials).collect::<Vec<_>>()
            )
        },
    );
    report.check((0.0..=1.0).contains(&r.risk.expected_interception), || {
        format!(
            "expected interception {} outside [0, 1]",
            r.risk.expected_interception
        )
    });
    for (victim, attacker, p) in &r.walked {
        let violation = walk_violation(&inputs.internet, p, [*victim, *attacker]);
        report.check(violation.is_none(), || {
            violation.clone().unwrap_or_default()
        });
    }
}

fn check_repeat(first: &Round, r: &Round, report: &mut Report) {
    report.check(r.matrix == first.matrix, || {
        "matrix changed between rounds".into()
    });
    report.check(
        r.full_rov == first.full_rov
            && r.half_rov == first.half_rov
            && r.classic_sweep == first.classic_sweep
            && r.forged_sweep == first.forged_sweep
            && r.internet == first.internet,
        || "an attack plan changed between rounds".into(),
    );
    let stats = |round: &Round| round.plans.iter().map(|(s, _)| *s).collect::<Vec<_>>();
    report.check(stats(r) == stats(first), || {
        "executor stats changed between rounds".into()
    });
}

pub fn run(ctx: &Ctx, report: &mut Report) -> (f64, RoundTimes) {
    let (inputs, setup_s) = setup(ctx, 7, || build(ctx));
    let mut first: Option<Round> = None;
    let mut trial_s = Vec::new();
    let mut internet_trial_ms = Vec::new();
    let times = run_rounds(
        ctx,
        || (),
        |_, ()| round(&inputs, ctx),
        |traced, r| {
            let (small, internet) = r.plans.split_at(r.plans.len() - 1);
            let items: usize = small.iter().map(|(s, _)| s.items).sum();
            let secs: f64 = small.iter().map(|(_, t)| t).sum();
            if !traced {
                trial_s.push(secs / items as f64);
                internet_trial_ms.push(internet[0].1 * 1e3 / internet[0].0.items as f64);
            }
            report.ops(r.plans.iter().map(|(s, _)| s.items as u64).sum());
            match &first {
                None => {
                    check_first(&inputs, &r, report);
                    first = Some(r);
                }
                Some(f) => check_repeat(f, &r, report),
            }
        },
    );
    let first = first.expect("one round");
    report.set("step_ms", median(&internet_trial_ms));
    report.set("throughput", 1.0 / median(&trial_s));
    let mut total = ExecStats::default();
    for (s, _) in &first.plans {
        total.items += s.items;
        total.compilations += s.compilations;
        total.executed += s.executed;
        total.replayed += s.replayed;
        total.footprint_checks += s.footprint_checks;
        total.cells_replayed += s.cells_replayed;
        total.cells_repropagated += s.cells_repropagated;
    }
    report.set("bgpsim.exec.items", total.items as f64);
    report.set("bgpsim.exec.compilations", total.compilations as f64);
    report.set("bgpsim.exec.executed", total.executed as f64);
    report.set("bgpsim.exec.replayed", total.replayed as f64);
    report.set(
        "bgpsim.exec.footprint_checks",
        total.footprint_checks as f64,
    );
    report.set("bgpsim.exec.cells_replayed", total.cells_replayed as f64);
    report.set(
        "bgpsim.exec.cells_repropagated",
        total.cells_repropagated as f64,
    );
    report.set(
        "bgpsim.exec.replay_ratio",
        total.cells_replayed as f64 / total.footprint_checks.max(1) as f64,
    );
    let topology_bytes = inputs.experiment_topology.memory_bytes() + inputs.internet.memory_bytes();
    report.set("bgpsim.topology_bytes", topology_bytes as f64);
    report.set("bgpsim.workspace_bytes", first.workspace_bytes as f64);
    (setup_s, times)
}
