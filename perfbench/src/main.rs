//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing;
//! `--trace 1` is the separate traced run that reports per-layer
//! metrics. Every workload runs two loops on its own inputs: its own
//! loop for three quarters of `--seconds`, and the other half of the
//! stack for the rest — the encoder workloads serve their batch, the
//! serving workloads run the encoder loop on 32 of their request
//! lengths — so every workload reports every metric. Outputs are checked outside the timed regions before any
//! number is reported. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A full
//! report (tails, sample counts, host fingerprint) and, for traced runs,
//! the recorded spans are written under `.bench_out/`.

mod encoder;
mod inputs;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use cora_datasets::Dataset;
use stats::Tail;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["encoder_mnli", "encoder_race", "serve_open", "serve_burst"];

/// Share of `--seconds` a workload spends on its own loop; the other
/// loop measures for the rest.
const OWN_SHARE: f64 = 0.75;

/// Sequences in the serving workloads' encoder batch, drawn from their
/// MNLI lengths: `encoder_mnli`'s batch size. A stratified draw this
/// large keeps the batch's rows and maximum length steady across seeds;
/// a 6-sequence draw (one 256-row serving batch) moved the layer times
/// by 20 to 40 % from seed to seed.
const SERVING_BATCH_SEQS: usize = 32;

/// `slo_attainment`'s latency limit per workload, in ms, as stated in
/// `BENCHMARK.json`. `serve_open`'s sits a little above its p90 latency
/// on a 2-CPU host; the others sit above the time the server takes to
/// drain the workload's burst, so their share reads 1 until serving
/// slows down or fails.
fn slo_ms(workload: &str) -> f64 {
    match workload {
        "encoder_mnli" => 150.0,
        "encoder_race" => 500.0,
        "serve_open" => 50.0,
        _ => 5_000.0,
    }
}

/// Where reports and span files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Environment knobs the program under test would honour; the benchmark
/// removes them before anything else runs so that no workload depends on
/// the caller's environment.
const SCRUBBED_PREFIXES: [&str; 3] = ["CORA_SERVE_", "CORA_TUNE_", "CORA_CHECK_DISJOINT"];

/// Size of the block freed at start-up to settle the allocator: below
/// glibc's 32 MiB cap on its dynamic mmap threshold, above any per-call
/// buffer of the workloads.
const ALLOCATOR_WARMUP_BYTES: usize = 16 << 20;

/// A measured loop that runs one step (a round or a served run) at a
/// time, so that two loops can share a run.
pub trait Loop {
    /// Runs and checks one step.
    fn step(&mut self, out: &mut Outcome);
    /// Seconds spent in steps so far.
    fn elapsed(&self) -> f64;
    /// Whether the loop has its minimum of steps and `seconds` of them.
    fn done(&self, seconds: f64) -> bool;
}

/// Runs `own` for `own_s` seconds and `other` for `other_s`, in
/// alternation: after each step of `own`, `other` steps until its share
/// of the time so far is made up. The host's speed drifts over seconds,
/// so both loops see the same phases of it.
fn interleave(
    own: &mut dyn Loop,
    other: &mut dyn Loop,
    own_s: f64,
    other_s: f64,
    out: &mut Outcome,
) {
    while !own.done(own_s) {
        own.step(out);
        while other.elapsed() < own.elapsed() * other_s / own_s {
            other.step(out);
        }
    }
    while !other.done(other_s) {
        other.step(out);
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value: the median for timings.
    pub value: f64,
    /// Samples behind the value (1 for counts and derived values).
    pub samples: usize,
    /// The tail percentile, when the sample supports one.
    pub tail: Option<Tail>,
    /// First and third quartile, for timings.
    pub quartiles: Option<(f64, f64)>,
}

impl Metric {
    /// A timing: median of `samples`, with its tail and count. An empty
    /// sample (every operation failed) has no value: `NaN`, which makes
    /// the run incorrect.
    pub fn timing(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: if samples.is_empty() {
                f64::NAN
            } else {
                stats::median(samples)
            },
            samples: samples.len(),
            tail: stats::tail(samples),
            quartiles: (samples.len() > 1).then(|| {
                let [q1, _, q3] = stats::quartiles(samples);
                (q1, q3)
            }),
        }
    }

    /// A single value (a count, a ratio of medians, a share).
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: 1,
            tail: None,
            quartiles: None,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked (layer calls or requests).
    pub attempted: u64,
    /// Of those, how many failed, were rejected or gave a wrong output.
    pub failed: u64,
    /// Named output checks made outside the timed regions.
    pub checks: Vec<(String, bool)>,
    /// The metrics this run reports (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Other figures for the report only (never in the last line).
    pub info: Vec<Metric>,
    /// Workload parameters, for the report.
    pub params: Vec<(String, String)>,
    /// The loop now running (`encoder` or `serve`), which prefixes its
    /// parameters.
    pub scope: &'static str,
}

impl Outcome {
    /// Records a named check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Records a parameter of the loop now running.
    pub fn param(&mut self, name: &str, value: impl ToString) {
        self.params
            .push((format!("{}.{name}", self.scope), value.to_string()));
    }

    fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|(_, ok)| *ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// The arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<u64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

/// Removes the program's environment knobs; returns the names removed.
fn scrub_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| SCRUBBED_PREFIXES.iter().any(|p| k.starts_with(p)))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// CPU count, model, SIMD level, runtime team size and commit.
fn host_fingerprint(team: usize, nproc: usize) -> Vec<(String, String)> {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("cpu_model".into(), model),
        ("simd".into(), simd_level().into()),
        ("team".into(), team.to_string()),
        ("commit".into(), commit()),
    ]
}

#[cfg(target_arch = "x86_64")]
fn simd_level() -> &'static str {
    if is_x86_feature_detected!("avx512f") {
        "avx512f"
    } else if is_x86_feature_detected!("avx2") {
        "avx2"
    } else if is_x86_feature_detected!("sse4.2") {
        "sse4.2"
    } else {
        "sse2"
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_level() -> &'static str {
    std::env::consts::ARCH
}

/// The checked-out commit when run from a git work tree, else `unknown`.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id.to_string()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Milliseconds since `t0`.
pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[Metric], detailed: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a value fails the run.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            let mut o = format!(
                "{}: {{\"value\": {value}, \"unit\": {}",
                json_str(&m.name),
                json_str(m.unit)
            );
            if detailed {
                let _ = write!(o, ", \"samples\": {}", m.samples);
                if let Some((q1, q3)) = m.quartiles {
                    let _ = write!(o, ", \"q1\": {q1}, \"q3\": {q3}");
                }
                if let Some(t) = m.tail {
                    let _ = write!(o, ", \"tail_pct\": {}, \"tail\": {}", t.pct, t.value);
                }
            }
            o.push('}');
            o
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_pairs(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let tail = match m.tail {
            Some(t) => format!("  p{} {:.4}", t.pct, t.value),
            None => String::new(),
        };
        let n = match m.quartiles {
            Some((q1, q3)) => format!("  q1 {q1:.4} q3 {q3:.4} (n={})", m.samples),
            None => String::new(),
        };
        println!("  {:<34} {:>14.4} {:<6}{tail}{n}", m.name, m.value, m.unit);
    }
}

fn main() {
    let scrubbed = scrub_environment();
    // Settle the allocator as a long-running process has it: glibc raises
    // its mmap and trim thresholds when a large mapped block is freed.
    // Without this, whether the layers' per-call buffers are mapped and
    // faulted in afresh on every call depends on the heap layout, which
    // changes with the seed's batch shape.
    drop(std::hint::black_box(vec![0u8; ALLOCATOR_WARMUP_BYTES]));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let team = cora_exec::runtime::Runtime::global().threads();
    if team > nproc {
        eprintln!(
            "perfbench: the runtime team has {team} threads but only {nproc} CPUs are \
             available; unset CORA_NUM_THREADS or lower it to at most {nproc}"
        );
        std::process::exit(2);
    }
    let mut host = host_fingerprint(team, nproc);
    host.push(("seed".into(), args.seed.to_string()));
    host.push(("scrubbed_env".into(), scrubbed.join(",")));

    let t0 = Instant::now();
    let own_s = args.seconds * OWN_SHARE;
    let other_s = args.seconds - own_s;
    let slo = slo_ms(&args.workload);
    let mut tracer = args.trace.then(Tracer::new);
    let mut out = Outcome::default();
    let w = args.workload.as_str();
    let encoder_batch = match w {
        "encoder_mnli" => (Dataset::Mnli, 32),
        "encoder_race" => (Dataset::Race, 8),
        _ => (Dataset::Mnli, SERVING_BATCH_SEQS),
    };
    let lens = inputs::stratified_lengths(encoder_batch.0, encoder_batch.1, args.seed);
    let own_is_encoder = w.starts_with("encoder_");
    let new_serving = |traced: bool, out: &mut Outcome| {
        out.scope = "serve";
        match w {
            "serve_open" => serve::Serving::open(&args, slo, traced, out),
            "serve_burst" => serve::Serving::burst(&args, slo, traced, out),
            _ => serve::Serving::batch(&args, encoder_batch.0, &lens, slo, traced, out),
        }
    };
    match tracer.as_mut() {
        // The traced loops run one after the other: their spans stay
        // apart, and their numbers have no bounds to keep.
        Some(tr) => {
            let mut serving = new_serving(true, &mut out);
            let serve_s = if own_is_encoder { other_s } else { own_s };
            while !serving.done(serve_s) {
                serving.step(&mut out);
            }
            serving.finish_traced(tr, &mut out);
            out.scope = "encoder";
            let encoder_s = if own_is_encoder { own_s } else { other_s };
            encoder::run_traced(&args, encoder_batch.0, &lens, encoder_s, tr, &mut out);
        }
        None => {
            out.scope = "encoder";
            let mut bench =
                encoder::Bench::new(&args, encoder_batch.0, &lens, own_is_encoder, &mut out);
            let mut serving = new_serving(false, &mut out);
            if own_is_encoder {
                interleave(&mut bench, &mut serving, own_s, other_s, &mut out);
            } else {
                interleave(&mut serving, &mut bench, own_s, other_s, &mut out);
            }
            bench.finish(&mut out);
            serving.finish(&mut out);
        }
    }
    let spans_json = match &tracer {
        Some(tr) => {
            for (layer_name, ns) in tr.layer_self_ns() {
                out.metrics.push(Metric::value(
                    format!("self.{layer_name}_ms"),
                    "ms",
                    ns as f64 / 1e6,
                ));
            }
            out.metrics.push(Metric::value(
                "trace.spans",
                "count",
                tr.spans().len() as f64,
            ));
            Some(tr.to_json())
        }
        None => {
            out.metrics
                .push(Metric::value("peak_rss_mb", "MiB", peak_rss_mb()));
            None
        }
    };
    let wall_s = secs(t0);
    let correct = out.correct();
    out.info.push(Metric::value(
        "failed_share",
        "share",
        out.failed as f64 / out.attempted.max(1) as f64,
    ));

    let kind = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} wall={wall_s:.1}s",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (k, v) in &host {
        println!("  host.{k} = {v}");
    }
    for (k, v) in &out.params {
        println!("  {k} = {v}");
    }
    for (name, ok) in &out.checks {
        println!("  check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    print_table(&format!("{kind} metrics"), &out.metrics);
    print_table("other figures (report only)", &out.info);

    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let checks: Vec<(String, String)> = out
        .checks
        .iter()
        .map(|(k, ok)| (k.clone(), ok.to_string()))
        .collect();
    let report = format!(
        "{{\"workload\": {}, \"host\": {}, \"params\": {}, \"checks\": {}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"info\": {}}}\n",
        json_str(&args.workload),
        json_pairs(&host),
        json_pairs(&out.params),
        json_pairs(&checks),
        out.attempted,
        out.failed,
        json_metrics(&out.metrics, true),
        json_metrics(&out.info, true),
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), report))
        .and_then(|()| match &spans_json {
            Some(spans) => std::fs::write(format!("{stem}-spans.json"), spans),
            None => Ok(()),
        });
    match written {
        Ok(()) => println!("  report written to {stem}.json"),
        Err(e) => eprintln!("perfbench: could not write the report under {OUT_DIR}: {e}"),
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&out.metrics, false)
    );
    if !correct {
        std::process::exit(1);
    }
}
