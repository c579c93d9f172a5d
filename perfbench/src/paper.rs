//! `paper-pipeline`: the paper's own §6/§7 artifacts at scale 1 — Table 1
//! on 6/1, the eight-week Figure 3 timeline, and the §6 stages (frozen
//! RFC 6811 validation of the whole table, the maxLength census, and the
//! minimalize and compress passes) — as the `table1`, `figure3` and
//! `section6` bins compute them, without their printing.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use maxlength_core::bounds::{full_deployment_minimal, max_permissive_lower_bound};
use maxlength_core::compress::compress_roas_parallel;
use maxlength_core::minimal::minimalize_vrps_par;
use maxlength_core::timeline::{Snapshot, Timeline};
use maxlength_core::{BgpTable, MaxLengthCensus, Scenario, ScenarioRow, Table1};
use rayon::prelude::*;
use rpki_datasets::{GeneratorConfig, World};
use rpki_prefix::Prefix;
use rpki_roa::{RouteOrigin, Vrp};
use rpki_rov::{FrozenVrpIndex, ValidationState, ValidationSummary};

use crate::trace::span;
use crate::{median, run_rounds, setup, Ctx, Report, Rng, RoundTimes};

/// The paper's Table 1 (6/1/2017), rows 1–7.
const PAPER_TABLE1: [usize; 7] = [39_949, 33_615, 52_745, 49_308, 776_945, 730_008, 729_371];
/// Figure 3 bands the paper's series stay inside.
const FIGURE3A_BAND: (usize, usize) = (30_000, 55_000);
const FIGURE3B_BAND: (usize, usize) = (710_000, 780_000);
/// Unannounced subprefix probes per compressed set.
const PROBES: usize = 50_000;
/// Routes checked against the benchmark's own RFC 6811 walk.
const SAMPLED_ROUTES: usize = 50_000;

struct Inputs {
    /// All eight weeks, 4/13 … 6/1.
    snapshots: Vec<Snapshot>,
    /// The distinct announced pairs of 6/1, sorted.
    routes: Vec<RouteOrigin>,
}

impl Inputs {
    fn last(&self) -> &Snapshot {
        self.snapshots.last().expect("eight weeks")
    }
}

fn build(ctx: &Ctx) -> Inputs {
    let world = span("datasets.world", || {
        World::generate(GeneratorConfig {
            seed: ctx.derive(1),
            scale: 1.0,
            ..GeneratorConfig::default()
        })
    });
    let weeks = span("datasets.snapshot", || {
        world
            .snapshots()
            .into_iter()
            .map(|s| {
                let vrps = s.vrps();
                (s, vrps)
            })
            .collect::<Vec<_>>()
    });
    span("core.bgp_build", || {
        let mut routes = weeks.last().expect("eight weeks").0.routes.clone();
        routes.sort_unstable();
        routes.dedup();
        let snapshots = weeks
            .into_iter()
            .map(|(s, vrps)| Snapshot {
                bgp: s.routes.iter().collect::<BgpTable>(),
                label: s.label,
                vrps,
            })
            .collect();
        Inputs { snapshots, routes }
    })
}

/// Everything one round computed, for the checks.
struct Round {
    table1: Table1,
    table1_s: f64,
    timeline: Timeline,
    figure3_s: f64,
    summary: ValidationSummary,
    census: MaxLengthCensus,
    minimal: Vec<Vrp>,
    minimal_compressed: Vec<Vrp>,
    today_compressed: Vec<Vrp>,
    full: Vec<Vrp>,
    full_compressed: Vec<Vrp>,
    lower_bound: Vec<Vrp>,
    compress_in: usize,
    compress_out: usize,
}

fn row(scenario: Scenario, pdus: usize) -> ScenarioRow {
    ScenarioRow {
        scenario,
        pdus,
        secure: scenario.secure(),
    }
}

fn compress(name: &'static str, vrps: &[Vrp], threads: usize, io: &mut (usize, usize)) -> Vec<Vrp> {
    let out = span(name, || compress_roas_parallel(vrps, threads));
    io.0 += vrps.len();
    io.1 += out.len();
    out
}

/// Table 1 as the stage calls `Table1::compute_par` makes, one span each.
fn table1_by_stage(
    vrps: &[Vrp],
    bgp: &BgpTable,
    threads: usize,
    io: &mut (usize, usize),
) -> Table1 {
    let mut today = vrps.to_vec();
    today.sort_unstable();
    today.dedup();
    let minimal = span("core.minimalize", || minimalize_vrps_par(vrps, bgp));
    let full = span("core.full_minimal", || full_deployment_minimal(bgp));
    let rows = vec![
        row(Scenario::Today, today.len()),
        row(
            Scenario::TodayCompressed,
            compress("core.compress_today", &today, threads, io).len(),
        ),
        row(Scenario::TodayMinimal, minimal.len()),
        row(
            Scenario::TodayMinimalCompressed,
            compress("core.compress_minimal", &minimal, threads, io).len(),
        ),
        row(Scenario::FullMinimal, full.len()),
        row(
            Scenario::FullMinimalCompressed,
            compress("core.compress_full", &full, threads, io).len(),
        ),
        row(
            Scenario::FullLowerBound,
            span("core.lower_bound", || max_permissive_lower_bound(bgp)).len(),
        ),
    ];
    Table1 { rows }
}

fn round(inputs: &Inputs, threads: usize, traced: bool) -> Round {
    let last = inputs.last();
    let (vrps, bgp) = (&last.vrps, &last.bgp);
    let mut io = (0usize, 0usize);

    let t = Instant::now();
    let table1 = if traced {
        table1_by_stage(vrps, bgp, threads, &mut io)
    } else {
        Table1::compute_par(vrps, bgp, threads)
    };
    let table1_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let timeline = span("core.timeline", || Timeline::compute(&inputs.snapshots));
    let figure3_s = t.elapsed().as_secs_f64();

    // §6, in the order the `section6` bin runs it.
    let frozen = span("rov.freeze", || {
        FrozenVrpIndex::from_vrps(vrps.iter().copied())
    });
    let summary = span("rov.validate", || frozen.validate_table_par(&inputs.routes));
    let census = span("core.census", || MaxLengthCensus::analyze_par(vrps, bgp));
    let minimal = span("core.minimalize", || minimalize_vrps_par(vrps, bgp));
    let minimal_compressed = compress("core.compress_minimal", &minimal, threads, &mut io);
    let today_compressed = compress("core.compress_today", vrps, threads, &mut io);
    let full = span("core.full_minimal", || full_deployment_minimal(bgp));
    let full_compressed = compress("core.compress_full", &full, threads, &mut io);
    let lower_bound = span("core.lower_bound", || max_permissive_lower_bound(bgp));
    Round {
        table1,
        table1_s,
        timeline,
        figure3_s,
        summary,
        census,
        minimal,
        minimal_compressed,
        today_compressed,
        full,
        full_compressed,
        lower_bound,
        compress_in: io.0,
        compress_out: io.1,
    }
}

/// RFC 6811 by its definition, over the benchmark's own prefix map: walk
/// every ancestor of the route's prefix and look for covering VRPs.
struct OwnValidator {
    by_prefix: HashMap<Prefix, Vec<Vrp>>,
}

impl OwnValidator {
    fn new(vrps: &[Vrp]) -> OwnValidator {
        let mut by_prefix: HashMap<Prefix, Vec<Vrp>> = HashMap::new();
        for v in vrps {
            by_prefix.entry(v.prefix).or_default().push(*v);
        }
        OwnValidator { by_prefix }
    }

    fn validate(&self, route: &RouteOrigin) -> ValidationState {
        let mut covered = false;
        let mut at = Some(route.prefix);
        while let Some(p) = at {
            for v in self.by_prefix.get(&p).into_iter().flatten() {
                covered = true;
                if v.asn == route.origin && route.prefix.len() <= v.max_len {
                    return ValidationState::Valid;
                }
            }
            at = p.parent();
        }
        if covered {
            ValidationState::Invalid
        } else {
            ValidationState::NotFound
        }
    }
}

/// Seeded unannounced subprefixes of announced prefixes, originated
/// either by the announcing AS or by another AS of the table.
fn probes(routes: &[RouteOrigin], seed: u64) -> Vec<RouteOrigin> {
    let announced: HashSet<RouteOrigin> = routes.iter().copied().collect();
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(PROBES);
    while out.len() < PROBES {
        let base = routes[rng.below(routes.len())];
        let mut prefix = base.prefix;
        for _ in 0..1 + rng.below(4) {
            let Some((left, right)) = prefix.children() else {
                break;
            };
            prefix = if rng.next_u64() & 1 == 0 { left } else { right };
        }
        let origin = if rng.next_u64() & 1 == 0 {
            base.origin
        } else {
            routes[rng.below(routes.len())].origin
        };
        let probe = RouteOrigin::new(prefix, origin);
        if !announced.contains(&probe) {
            out.push(probe);
        }
    }
    out
}

/// The number of routes (announced pairs, then probes) whose RFC 6811
/// outcome differs between `input` and its compressed `output`.
fn outcome_changes(input: &[Vrp], output: &[Vrp], routes: &[RouteOrigin]) -> usize {
    let a = FrozenVrpIndex::from_vrps(input.iter().copied());
    let b = FrozenVrpIndex::from_vrps(output.iter().copied());
    routes
        .par_iter()
        .map(|r| usize::from(a.validate(r) != b.validate(r)))
        .sum()
}

fn check_first(ctx: &Ctx, inputs: &Inputs, r: &Round, report: &mut Report) {
    let last = inputs.last();
    let rows: Vec<usize> = r.table1.rows.iter().map(|row| row.pdus).collect();
    for (i, (&got, &paper)) in rows.iter().zip(&PAPER_TABLE1).enumerate() {
        // Rows 4, 6 and 7 come out one above the paper: the generator's
        // integer calibration (`datasets::config`) rounds their inputs up.
        report.check(got.abs_diff(paper) <= 1, || {
            format!("Table 1 row {}: {got} vs the paper's {paper} (±1)", i + 1)
        });
    }
    report.check(rows[4] == inputs.routes.len(), || {
        format!(
            "Table 1 row 5 = {} but there are {} distinct announced pairs",
            rows[4],
            inputs.routes.len()
        )
    });
    for (compressed, input) in [(1, 0), (3, 2), (5, 4)] {
        report.check(rows[compressed] <= rows[input], || {
            format!(
                "Table 1 row {} ({}) exceeds its input row {} ({})",
                compressed + 1,
                rows[compressed],
                input + 1,
                rows[input]
            )
        });
    }
    // The lower bound is a full-deployment bound: it can be no larger
    // than either secure full-deployment row.
    for secure in [4, 5] {
        report.check(rows[6] <= rows[secure], || {
            format!(
                "lower bound {} exceeds secure row {} ({})",
                rows[6],
                secure + 1,
                rows[secure]
            )
        });
    }
    for (series, (lo, hi)) in [
        (r.timeline.figure3a(), FIGURE3A_BAND),
        (r.timeline.figure3b(), FIGURE3B_BAND),
    ] {
        for s in &series {
            for (label, v) in &s.points {
                report.check((lo..=hi).contains(v), || {
                    format!("Figure 3 {} on {label}: {v} outside {lo}..{hi}", s.name)
                });
            }
        }
    }
    let june = &r.timeline.points.last().expect("eight weeks").table;
    report.check(*june == r.table1, || {
        format!("6/1 timeline point {june:?} != from-scratch Table 1")
    });
    for (name, set) in [
        ("today minimal", &r.minimal),
        ("today minimal compressed", &r.minimal_compressed),
        ("full minimal", &r.full),
        ("full minimal compressed", &r.full_compressed),
    ] {
        let vulnerable = MaxLengthCensus::analyze_par(set, &last.bgp).vulnerable;
        report.check(vulnerable == 0, || {
            format!("census of the {name} set reports {vulnerable} vulnerable")
        });
    }
    report.check(
        r.minimal.len() == rows[2]
            && r.minimal_compressed.len() == rows[3]
            && r.today_compressed.len() == rows[1]
            && r.full.len() == rows[4]
            && r.full_compressed.len() == rows[5]
            && r.lower_bound.len() == rows[6],
        || "the §6 stage outputs disagree with Table 1".to_string(),
    );

    // Lossless compression: announced pairs and unannounced probes keep
    // their RFC 6811 outcome.
    let mut routes = inputs.routes.clone();
    routes.extend(probes(&inputs.routes, ctx.derive(2)));
    for (name, input, output) in [
        ("today", &last.vrps, &r.today_compressed),
        ("today minimal", &r.minimal, &r.minimal_compressed),
        ("full minimal", &r.full, &r.full_compressed),
    ] {
        let changed = outcome_changes(input, output, &routes);
        report.check(changed == 0, || {
            format!("compressing the {name} set changed {changed} RFC 6811 outcomes")
        });
    }

    // The frozen index against the definition, on a seeded route sample.
    let own = OwnValidator::new(&last.vrps);
    let frozen = FrozenVrpIndex::from_vrps(last.vrps.iter().copied());
    let mut rng = Rng::new(ctx.derive(3));
    let mut sampled = ValidationSummary::default();
    for _ in 0..SAMPLED_ROUTES {
        let route = inputs.routes[rng.below(inputs.routes.len())];
        let want = own.validate(&route);
        sampled += ValidationSummary::of(want);
        let got = frozen.validate(&route);
        report.check(got == want, || {
            format!("{route}: frozen index says {got}, RFC 6811 says {want}")
        });
    }
    report.check(r.summary.total() == inputs.routes.len(), || {
        format!(
            "validation summary covers {} of {} routes",
            r.summary.total(),
            inputs.routes.len()
        )
    });
    // The sampled shares must sit close to the whole-table summary.
    for (what, part, whole) in [
        (
            "Valid",
            sampled.valid_fraction(),
            r.summary.valid_fraction(),
        ),
        (
            "Invalid",
            sampled.invalid_fraction(),
            r.summary.invalid_fraction(),
        ),
        (
            "NotFound",
            sampled.not_found_fraction(),
            r.summary.not_found_fraction(),
        ),
    ] {
        report.check((part - whole).abs() < 0.01, || {
            format!("sampled {what} share {part:.4} vs whole-table {whole:.4}")
        });
    }
}

/// Later rounds must reproduce the first one exactly.
fn check_repeat(first: &Round, r: &Round, report: &mut Report) {
    report.check(r.table1 == first.table1, || {
        "Table 1 changed between rounds".into()
    });
    let tables = |r: &Round| {
        r.timeline
            .points
            .iter()
            .map(|p| p.table.clone())
            .collect::<Vec<_>>()
    };
    report.check(tables(r) == tables(first), || {
        "Figure 3 changed between rounds".into()
    });
    report.check(r.summary == first.summary, || {
        "validation summary changed".into()
    });
    report.check(r.census == first.census, || {
        "census changed between rounds".into()
    });
    for (a, b) in [
        (&r.minimal, &first.minimal),
        (&r.minimal_compressed, &first.minimal_compressed),
        (&r.today_compressed, &first.today_compressed),
        (&r.full, &first.full),
        (&r.full_compressed, &first.full_compressed),
        (&r.lower_bound, &first.lower_bound),
    ] {
        report.check(a == b, || "a §6 stage output changed between rounds".into());
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> (f64, RoundTimes) {
    let (inputs, setup_s) = setup(ctx, 3, || build(ctx));
    let mut first: Option<Round> = None;
    let mut table1_s = Vec::new();
    let mut figure3_s = Vec::new();
    let mut counts = None;
    let times = run_rounds(
        ctx,
        || (),
        |traced, ()| round(&inputs, ctx.threads, traced),
        |traced, r| {
            if !traced {
                table1_s.push(r.table1_s);
                figure3_s.push(r.figure3_s);
            }
            if traced || counts.is_none() {
                counts = Some((r.compress_in, r.compress_out, inputs.routes.len()));
            }
            match &first {
                None => {
                    check_first(ctx, &inputs, &r, report);
                    first = Some(r);
                }
                Some(f) => check_repeat(f, &r, report),
            }
        },
    );
    let (compress_in, compress_out, routes) = counts.expect("one round");
    report.set("step_ms", median(&table1_s) * 1e3);
    report.set(
        "throughput",
        inputs.snapshots.len() as f64 / median(&figure3_s),
    );
    report.set("core.compress_tuples_in", compress_in as f64);
    report.set("core.compress_tuples_out", compress_out as f64);
    report.set("rov.routes_validated", routes as f64);
    (setup_s, times)
}
