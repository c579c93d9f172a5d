//! The maxlength-rpki benchmark: one process runs one named workload for
//! a fixed time, checks what the program computed, and prints its
//! metrics as the last line of standard output.
//!
//! ```sh
//! perfbench --workload paper-pipeline --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced rounds and prints the per-layer metrics drawn
//! from the spans (see `trace.rs`). The process exits non-zero when any
//! check fails.

mod attack;
mod churn;
mod paper;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("step_ms", "ms"),
    ("throughput", "1/s"),
];

/// The per-layer metrics of the traced run. A workload that does not
/// call into a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.world_s", "s"),
    ("datasets.snapshot_s", "s"),
    ("datasets.churn_generate_s", "s"),
    ("core.bgp_build_s", "s"),
    ("core.minimalize_s", "s"),
    ("core.compress_today_s", "s"),
    ("core.compress_minimal_s", "s"),
    ("core.compress_full_s", "s"),
    ("core.compress_tuples_in", "count"),
    ("core.compress_tuples_out", "count"),
    ("core.full_minimal_s", "s"),
    ("core.lower_bound_s", "s"),
    ("core.timeline_s", "s"),
    ("core.census_s", "s"),
    ("core.assess_risk_s", "s"),
    ("rov.freeze_s", "s"),
    ("rov.validate_s", "s"),
    ("rov.routes_validated", "count"),
    ("rov.validate_routes_per_s", "1/s"),
    ("rov.chain_new_s", "s"),
    ("rov.chain_apply_s", "s"),
    ("rov.chain_apply_median_ms", "ms"),
    ("rov.chain_state_changes", "count"),
    ("rov.chain_refreezes", "count"),
    ("bgpsim.topology_generate_s", "s"),
    ("bgpsim.internet_generate_s", "s"),
    ("bgpsim.topology_bytes", "bytes"),
    ("bgpsim.matrix_s", "s"),
    ("bgpsim.experiment_s", "s"),
    ("bgpsim.sweep_s", "s"),
    ("bgpsim.internet_plan_s", "s"),
    ("bgpsim.exec.items", "count"),
    ("bgpsim.exec.compilations", "count"),
    ("bgpsim.exec.executed", "count"),
    ("bgpsim.exec.replayed", "count"),
    ("bgpsim.exec.footprint_checks", "count"),
    ("bgpsim.exec.cells_replayed", "count"),
    ("bgpsim.exec.cells_repropagated", "count"),
    ("bgpsim.exec.replay_ratio", "ratio"),
    ("bgpsim.propagate_us", "us"),
    ("bgpsim.workspace_bytes", "bytes"),
    ("rtr.update_s", "s"),
    ("rtr.serve_s", "s"),
    ("rtr.images_built", "count"),
    ("rtr.images_reused", "count"),
    ("rtr.notifies", "count"),
    ("rtr.overflow_resets", "count"),
    ("rtr.router_apply_s", "s"),
    ("rtr.frames_decoded", "count"),
    ("rtr.bytes_to_router", "bytes"),
    ("rtr.bytes_to_cache", "bytes"),
    ("rtr.wire_bytes_per_epoch", "bytes"),
    ("rtr.reset_sync_s", "s"),
    ("rtr.reset_syncs", "count"),
    ("rtr.live_sync_s", "s"),
    ("rtr.live_apply_s", "s"),
    ("self.core_s", "s"),
    ("self.rov_s", "s"),
    ("self.bgpsim_s", "s"),
    ("self.rtr_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Command-line settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

impl Ctx {
    /// A seed for one input of the workload, derived from `--seed` and a
    /// per-input domain so that inputs vary independently with the seed.
    pub fn derive(&self, domain: u64) -> u64 {
        Rng::new(self.seed ^ domain.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
    }
}

/// SplitMix64: the benchmark's own seeded stream for sampling probes,
/// routes and reconnecting sessions.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Operation accounting, check results and metric values of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one checked value; a false `ok` is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Counts `n` operations that completed.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Builds the workload's inputs `times` times, each inside a `setup` root
/// span (recorded when the run is traced), and returns the last copy with
/// the median set-up time. The previous copy is dropped before the next
/// is built, so peak memory holds one.
pub fn setup<T>(ctx: &Ctx, times: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    trace::set_enabled(ctx.trace);
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        last = Some(trace::span("setup", &mut build));
        secs.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(false);
    let shown: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-up: {} s", shown.join(", "));
    (last.expect("at least one set-up"), median(&secs))
}

/// Wall times of the rounds a run made, split by whether spans were
/// recorded.
pub struct RoundTimes {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

/// Runs whole rounds until their summed time reaches `ctx.seconds`.
/// Without tracing every round is untraced; with tracing, a warm-up
/// round comes first and then rounds alternate untraced and traced, at
/// least one of each. `prepare` builds a round's private starting state,
/// untimed; `round` gets whether it is traced and that state, and does
/// the timed work; `after` gets whether it was traced and the round's
/// output, and does the untimed checks.
pub fn run_rounds<P, R>(
    ctx: &Ctx,
    mut prepare: impl FnMut() -> P,
    mut round: impl FnMut(bool, P) -> R,
    mut after: impl FnMut(bool, R),
) -> RoundTimes {
    let mut times = RoundTimes {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    let mut total = 0.0;
    for i in 0.. {
        // With tracing, round 0 only warms the allocator and caches (the
        // first round of a process is the slowest) and is timed in
        // neither list; untraced and traced rounds then alternate.
        let warmup = ctx.trace && i == 0;
        let traced = ctx.trace && i > 0 && i % 2 == 0;
        let prepared = prepare();
        trace::set_enabled(traced);
        let t = Instant::now();
        let out = trace::span("round", || round(traced, prepared));
        let secs = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        total += secs;
        if traced {
            times.traced.push(secs);
        } else if !warmup {
            times.untraced.push(secs);
        }
        let kind = if warmup {
            "warm-up"
        } else if traced {
            "traced"
        } else {
            "untraced"
        };
        let t = Instant::now();
        after(traced, out);
        println!(
            "round {i} ({kind}): {secs:.6} s, checks {:.3} s",
            t.elapsed().as_secs_f64()
        );
        let both = !ctx.trace || (!times.traced.is_empty() && !times.untraced.is_empty());
        if both && total >= ctx.seconds {
            break;
        }
    }
    times
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fills the per-layer metrics that come straight from the spans: the
/// summed time of each named span per set-up or per traced round
/// (median over them), each layer's self time, the uncovered part of a
/// round, the tracing overhead and the span count.
fn layer_metrics_from_spans(report: &mut Report, times: &RoundTimes) {
    let spans = trace::spans();
    let setups = trace::aggregate(&spans, "setup");
    let rounds = trace::aggregate(&spans, "round");
    let median_of = |aggs: &[trace::RootAggregate], name: &str| -> Option<f64> {
        let sums: Vec<f64> = aggs
            .iter()
            .filter_map(|a| a.durations.get(name).map(|d| d.iter().sum()))
            .collect();
        (!sums.is_empty()).then(|| median(&sums))
    };
    for (metric, unit) in PER_LAYER {
        if *unit != "s" || metric.starts_with("self.") || metric.starts_with("trace.") {
            continue;
        }
        let span = metric.trim_end_matches("_s");
        if let Some(v) = median_of(&setups, span).or_else(|| median_of(&rounds, span)) {
            report.set(metric, v);
        }
    }
    // The datasets layer works only in set-up, so it has no round self time.
    for layer in ["core", "rov", "bgpsim", "rtr"] {
        let per_round: Vec<f64> = rounds
            .iter()
            .map(|a| a.self_by_layer.get(layer).copied().unwrap_or(0.0))
            .collect();
        let name: &'static str = match layer {
            "core" => "self.core_s",
            "rov" => "self.rov_s",
            "bgpsim" => "self.bgpsim_s",
            _ => "self.rtr_s",
        };
        report.set(name, median(&per_round));
    }
    let uncovered: Vec<f64> = rounds.iter().map(|a| a.uncovered_s).collect();
    report.set("trace.uncovered_s", median(&uncovered));
    report.set(
        "trace.overhead_s",
        median(&times.traced) - median(&times.untraced),
    );
    report.set("trace.spans", spans.len() as f64);
    // Span-derived medians of single calls.
    let singles = |name: &str| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|a| a.durations.get(name).cloned().unwrap_or_default())
            .collect()
    };
    let apply = singles("rov.chain_apply");
    if !apply.is_empty() {
        report.set("rov.chain_apply_median_ms", median(&apply) * 1e3);
    }
    let propagate = singles("bgpsim.propagate");
    if !propagate.is_empty() {
        report.set("bgpsim.propagate_us", median(&propagate) * 1e6);
    }
    if let (Some(v), Some(&routes)) = (
        median_of(&rounds, "rov.validate"),
        report.metrics.get("rov.routes_validated"),
    ) {
        report.set("rov.validate_routes_per_s", routes / v);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <paper-pipeline|attack-grid|rtr-churn> --seed <n> \
         --seconds <s> --trace <0|1> [--trace-file <path>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace_flag = None;
    let mut trace_file = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace_flag = Some(value == "1"),
            "--trace-file" => trace_file = Some(std::path::PathBuf::from(value)),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace_on)) =
        (workload, seed, seconds, trace_flag)
    else {
        usage()
    };
    // One worker: on a small shared machine a second worker makes every
    // parallel stage wait on whichever core a neighbour holds, and the
    // run-to-run spread grows several-fold.
    let threads = 1;
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed,
        seconds,
        trace: trace_on,
        threads,
    };
    println!(
        "workload {workload} seed {seed} seconds {seconds} trace {trace_on} threads {threads} cores {cores}"
    );

    let mut report = Report::default();
    let (setup_s, times) = match workload.as_str() {
        "paper-pipeline" => paper::run(&ctx, &mut report),
        "attack-grid" => attack::run(&ctx, &mut report),
        "rtr-churn" => churn::run(&ctx, &mut report),
        _ => usage(),
    };
    println!(
        "rounds: {} untraced, {} traced; attempted {} failed {}",
        times.untraced.len(),
        times.traced.len(),
        report.attempted,
        report.failed
    );

    let wanted: &[(&str, &str)] = if trace_on {
        layer_metrics_from_spans(&mut report, &times);
        if let Some(path) = &trace_file {
            if let Err(err) = trace::write_jsonl(path, &trace::spans()) {
                eprintln!("cannot write spans to {}: {err}", path.display());
                std::process::exit(1);
            }
        }
        PER_LAYER
    } else {
        report.set("setup_s", setup_s);
        report.set("run_s", median(&times.untraced));
        report.set("peak_rss_mib", peak_rss_mib());
        END_TO_END
    };
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
