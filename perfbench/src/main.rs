//! One benchmark for the figure, crossover and checkpoint pipelines.
//!
//! ```text
//! perfbench --workload fig7|sparse|crossover|cascade|ckpt --seed N --seconds S --trace 0|1
//!           [--rustc VERSION] [--commit HASH]
//! perfbench --workload W --seed N --setup-child
//! ```
//!
//! With `--trace 0` the run times the workload end to end with no
//! instrumentation and prints the end-to-end metrics; with `--trace 1` it
//! replays the same work through outside-in decorators and spans and prints
//! the per-layer metrics.  Either way the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it is a `record` with the host fingerprint, the result digest and
//! workload notes.  The `--setup-child` form only times the workload's
//! set-up and prints the samples; see [`SetupSampler`].  See `README.md`
//! next to this file.

mod ckpt;
mod crossover;
mod sweep;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use util::{json_num, median, LayerSamples, Metrics};

/// The seed the pinned digests below were recorded at.
const DEFAULT_SEED: u64 = 42;

/// Result digests at [`DEFAULT_SEED`]: the correctness gate against silent
/// changes of any simulated or restored bit.
const PINNED: &[(&str, u64)] = &[
    ("fig7", 0x6de5_72a8_1d7d_f039),
    ("sparse", 0x30d3_0df7_f15b_5cd4),
    ("crossover", 0xac06_1995_ddb8_cfae),
    ("cascade", 0x5471_73d1_2c7d_c36b),
    ("ckpt", 0x9ea3_2b05_53e0_6905),
];

/// The per-layer metrics of the traced run, with their units.  Layers a
/// workload does not reach report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("expand.s", "s"),
    ("expand.points", "count"),
    ("model.calls", "count"),
    ("model.s", "s"),
    ("sched.busy_s", "s"),
    ("sched.task_max_over_mean", "ratio"),
    ("sched.idle_share", "ratio"),
    ("sched.block_idle_share", "ratio"),
    ("render.s", "s"),
    ("render.bytes", "B"),
    ("refine.probes", "count"),
    ("refine.sim_probes", "count"),
    ("refine.executions", "count"),
    ("probe.s", "s"),
    ("compile.calls", "count"),
    ("compile.programs", "count"),
    ("compile.hit_ratio", "ratio"),
    ("compile.steps", "count"),
    ("compile.s", "s"),
    ("run.s", "s"),
    ("reset.s", "s"),
    ("run.lane_steps", "count"),
    ("fast.s", "s"),
    ("slow.s", "s"),
    ("fast.commit_ratio", "ratio"),
    ("driver.s", "s"),
    ("adaptive.reps_used_ratio", "ratio"),
    ("executions", "count"),
    ("fill.calls", "count"),
    ("fill.draws", "count"),
    ("fill.s", "s"),
    ("fill.ns_per_draw", "ns"),
    ("redraw.count", "count"),
    ("redraw.bursts", "count"),
    ("redraw.per_exec", "ratio"),
    ("redraw.s", "s"),
    ("redraw.ns_per_draw", "ns"),
    ("scenario.resolve_s", "s"),
    ("acc.pushes", "count"),
    ("acc.s", "s"),
    ("capture.s", "s"),
    ("frame.encode_s", "s"),
    ("frame.encode_MiBps", "MiB/s"),
    ("checksum.commit_s", "s"),
    ("checksum.MiBps", "MiB/s"),
    ("backend.put_s", "s"),
    ("backend.put_bytes", "B"),
    ("backend.get_s", "s"),
    ("frame.decode_s", "s"),
    ("verify.s", "s"),
    ("restore.fallback_depth", "count"),
    ("restore.rejected", "count"),
    ("restore.retries", "count"),
    ("ckpt.verify_calls_s", "s"),
    ("ckpt.commit_s", "s"),
    ("ckpt.commit_p90_s", "s"),
    ("ckpt.restore_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Parsed command line.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Only time the set-up and print the samples (see [`SetupSampler`]).
    pub setup_child: bool,
    pub rustc: String,
    pub commit: String,
}

/// What a workload run reports.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub threads: usize,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub layers: LayerSamples,
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn new(workload: &'static str, cfg: &RunConfig, digest: u64) -> Self {
        Self {
            workload,
            seed: cfg.seed,
            threads: THREADS,
            digest,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            layers: LayerSamples::default(),
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    /// Records the pass-time distribution and returns the reported pass
    /// time: the fastest pass.  The work of a pass is deterministic, so
    /// every slower pass measures interference from outside the process.
    /// On the shared host this was built on, that interference came in
    /// bursts that moved the median pass of one run by up to 1.6x, while
    /// the fastest pass repeated within 6 %.
    pub fn passes(&mut self, walls: &[f64]) -> f64 {
        self.note("passes", walls.len() as f64);
        self.note("wall_median_s", median(walls));
        self.note("wall_p90_s", util::quantile(walls, 0.9));
        util::quantile(walls, 0.0)
    }
}

/// Set-up processes per run, started at even intervals over the run.
const SETUP_PROCESSES: usize = 48;
/// Timed samples per set-up process.
const SETUP_SAMPLES: usize = 3;

/// Times the workload's set-up in fresh processes spread over the run and
/// reports the fastest of their median samples.
///
/// A set-up takes microseconds to milliseconds of deterministic work, so,
/// as with the passes, a slower process measures interference.  On the
/// shared host this was built on, the median of all samples of a run read
/// either the host's quiet speed or its 1.5–1.8x slower one, whichever
/// held for most of the run, which split ten runs into two groups.  Each
/// process reports the median of its own samples, so a burst inside one
/// process does not count, and the fastest process needs only one quiet
/// moment among those spread over the run.  The `ckpt` set-up, which
/// writes a fresh megabyte image, read 1.8x slow for 20 s and more at a
/// time while the passes did not, with a quiet process only now and then
/// in between; sixteen processes missed those in a quarter of the runs, so
/// there are 48.  Each process is a `--setup-child` run of this binary.
pub struct SetupSampler {
    workload: String,
    seed: u64,
    seconds: f64,
    processes: usize,
    medians: Vec<f64>,
}

impl SetupSampler {
    pub fn new(cfg: &RunConfig) -> Self {
        Self {
            workload: cfg.workload.clone(),
            seed: cfg.seed,
            seconds: cfg.seconds,
            processes: 0,
            medians: Vec::new(),
        }
    }

    /// Runs the set-up processes that are due `elapsed` seconds into the run.
    pub fn poll(&mut self, elapsed: f64) -> Result<(), String> {
        while self.processes < SETUP_PROCESSES
            && elapsed >= self.processes as f64 * self.seconds / SETUP_PROCESSES as f64
        {
            self.spawn()?;
        }
        Ok(())
    }

    /// Runs the processes not yet due and returns the fastest process
    /// median.
    pub fn finish(mut self) -> Result<f64, String> {
        while self.processes < SETUP_PROCESSES {
            self.spawn()?;
        }
        Ok(util::quantile(&self.medians, 0.0))
    }

    fn spawn(&mut self) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("set-up process: {e}"))?;
        let out = std::process::Command::new(exe)
            .args(["--workload", &self.workload, "--seed", &self.seed.to_string()])
            .arg("--setup-child")
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "set-up process failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let mut samples = Vec::new();
        for word in String::from_utf8_lossy(&out.stdout).split_whitespace() {
            let seconds = word
                .parse()
                .map_err(|_| format!("set-up process printed `{word}`"))?;
            samples.push(seconds);
        }
        if samples.len() != SETUP_SAMPLES {
            return Err(format!(
                "set-up process printed {} samples, not {SETUP_SAMPLES}",
                samples.len()
            ));
        }
        self.medians.push(median(&samples));
        self.processes += 1;
        Ok(())
    }
}

/// Times `f` in [`SETUP_SAMPLES`] samples of about 10 ms each, after
/// repeating it for 50 ms: a fresh process starts on a cold core.
fn time_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<Vec<f64>, String> {
    let warm = ft_platform::clock::Stopwatch::start();
    let mut calls = 0usize;
    while calls == 0 || warm.elapsed_seconds() < 0.05 {
        std::hint::black_box(f()?);
        calls += 1;
    }
    let repeats = ((calls as f64 * 0.01 / warm.elapsed_seconds()) as usize).max(1);
    (0..SETUP_SAMPLES)
        .map(|_| {
            let sw = ft_platform::clock::Stopwatch::start();
            for _ in 0..repeats {
                std::hint::black_box(f()?);
            }
            Ok(sw.elapsed_seconds() / repeats as f64)
        })
        .collect()
}

/// The `--setup-child` run: the workload's set-up samples, in seconds.
fn setup_child(cfg: &RunConfig) -> Result<Vec<f64>, String> {
    match cfg.workload.as_str() {
        "crossover" => time_setup(|| crossover::setup(cfg.seed)),
        "ckpt" => time_setup(|| Ok(ckpt::setup(cfg.seed))),
        name => {
            let kind =
                sweep::Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            time_setup(|| sweep::setup(kind, cfg.seed))
        }
    }
}

/// Threads every workload's timed passes run on; see
/// [`sweep::Kind::sched_threads`] for why.
pub const THREADS: usize = 1;

const WORKLOADS: &[&str] = &["fig7", "sparse", "crossover", "cascade", "ckpt"];

/// Sets the grid thread count of `SweepSpec::run`.
pub fn configure_threads(threads: usize) {
    // The vendored pool only records the count; it cannot fail.
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global();
}

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; use {}",
            WORKLOADS.join("|")
        ));
    }
    let number = |name: &str, default: f64| -> Result<f64, String> {
        value(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{name} takes a number, got `{v}`"))
        })
    };
    let seed = match value("--seed") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--seed takes an unsigned integer, got `{v}`"))?,
        None => DEFAULT_SEED,
    };
    let seconds = number("--seconds", 40.0)?;
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, got `{v}`")),
    };
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        trace,
        setup_child: args.iter().any(|a| a == "--setup-child"),
        rustc: value("--rustc").unwrap_or_else(|| "unknown".into()),
        commit: value("--commit").unwrap_or_else(|| "unknown".into()),
    })
}

fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    match (cfg.workload.as_str(), cfg.trace) {
        ("crossover", false) => crossover::run(cfg),
        ("crossover", true) => crossover::traced(cfg),
        ("ckpt", false) => ckpt::run(cfg),
        ("ckpt", true) => ckpt::traced(cfg),
        (name, trace) => {
            let kind =
                sweep::Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            if trace {
                sweep::traced(kind, cfg)
            } else {
                sweep::run(kind, cfg)
            }
        }
    }
}

/// Self-time shares of the leaf layers, from the traced medians: each
/// leaf's share of the sum of leaves (grid workloads and crossover), or of
/// the commit and restore spans (ckpt).
fn self_shares(out: &Outcome) -> BTreeMap<&'static str, f64> {
    let m = |name: &str| out.layers.median(name);
    let mut shares = BTreeMap::new();
    if out.workload == "ckpt" {
        let commit = m("frame.encode_s") + m("checksum.commit_s") + m("backend.put_s");
        for (k, v) in [
            ("commit.frame", m("frame.encode_s")),
            ("commit.checksum", m("checksum.commit_s")),
            ("commit.backend", m("backend.put_s")),
        ] {
            shares.insert(k, v / commit);
        }
        let restore = m("frame.decode_s") + m("verify.s") + m("backend.get_s");
        for (k, v) in [
            ("restore.frame", m("frame.decode_s")),
            ("restore.verify", m("verify.s")),
            ("restore.backend", m("backend.get_s")),
        ] {
            shares.insert(k, v / restore);
        }
        return shares;
    }
    let leaves = [
        ("model", m("model.s")),
        ("compile", m("compile.s")),
        ("scenario", m("scenario.resolve_s")),
        ("reset", m("reset.s")),
        ("fill", m("fill.s")),
        ("redraw", m("redraw.s")),
        ("fast", m("fast.s")),
        ("slow", m("slow.s")),
        ("acc", m("acc.s")),
    ];
    let total: f64 = leaves.iter().map(|(_, v)| v).sum();
    for (k, v) in leaves {
        shares.insert(k, v / total.max(1e-12));
    }
    shares
}

fn record(out: &Outcome, cfg: &RunConfig, pinned_ok: Option<bool>) -> String {
    let mut notes = String::from("{");
    for (i, (k, v)) in out.notes.iter().enumerate() {
        let _ = write!(
            notes,
            "{}\"{k}\": {}",
            if i > 0 { ", " } else { "" },
            json_num(*v)
        );
    }
    notes.push('}');
    let mut line = format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"digest\": \"{:#018x}\", \
         \"pinned_digest_ok\": {}, \"host\": {}, \"notes\": {notes}",
        out.workload,
        out.seed,
        u8::from(cfg.trace),
        out.digest,
        pinned_ok.map_or("null".to_string(), |b| b.to_string()),
        util::host_json(out.threads, &cfg.rustc, &cfg.commit),
    );
    if cfg.trace {
        let mut shares = String::from("{");
        for (i, (k, v)) in self_shares(out).iter().enumerate() {
            let _ = write!(
                shares,
                "{}\"{k}\": {}",
                if i > 0 { ", " } else { "" },
                json_num(*v)
            );
        }
        shares.push('}');
        let _ = write!(
            line,
            ", \"traced_passes\": {}, \"counts_repeat\": true, \"self_share\": {shares}",
            out.layers.sets.len()
        );
    }
    line.push_str("}}");
    line
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if cfg.setup_child {
        match setup_child(&cfg) {
            Ok(samples) => {
                let words: Vec<String> = samples.iter().map(|s| json_num(*s)).collect();
                println!("{}", words.join(" "));
                return;
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", cfg.workload);
                std::process::exit(1);
            }
        }
    }
    configure_threads(THREADS);
    let probe_before = util::host_probe_s();
    let mut out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            std::process::exit(1);
        }
    };
    let pinned_ok = (cfg.seed == DEFAULT_SEED).then(|| {
        PINNED
            .iter()
            .find(|(w, _)| *w == out.workload)
            .is_some_and(|&(_, d)| d == out.digest)
    });
    if cfg.trace {
        let mut metrics = Metrics::default();
        for &(name, unit) in PER_LAYER {
            metrics.put(name, out.layers.median(name), unit);
        }
        out.metrics = metrics;
    }
    out.note("host_probe_before_s", probe_before);
    out.note("host_probe_after_s", util::host_probe_s());
    let correct = out.failed == 0 && pinned_ok != Some(false);
    println!("{}", record(&out, &cfg, pinned_ok));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics the
    /// benchmark prints.
    #[test]
    fn benchmark_manifest_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let names_in = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("per_layer"), per_layer);
        assert_eq!(
            names_in("end_to_end"),
            ["wall_s", "setup_s", "ops_per_s", "peak_rss_mib"]
        );
        for w in ["crossover", "cascade", "ckpt"] {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
            assert!(PINNED.iter().any(|(p, _)| *p == w));
        }
    }
}
