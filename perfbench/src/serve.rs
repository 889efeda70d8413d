//! The serving loop: requests served by `Server::run_threaded` with
//! Strict math and no autotuning, every one checked against the ragged
//! kernels. It comes in three forms: `serve_open`, a fixed-rate open
//! loop of unquantized MNLI lengths below saturation; `serve_burst`,
//! bursts of such requests all due at t = 0, each on a fresh server; and,
//! on the encoder workloads, the workload's own batch served round after
//! round by one warm server.

use std::collections::BTreeMap;
use std::time::Instant;

use cora_core::autotune::TuneBudget;
use cora_datasets::Dataset;
use cora_exec::{CpuPool, MathMode};
use cora_serve::{
    pack_ragged, unpack_rows, PoolStats, Request, Server, ServerConfig, SessionPool, SimReport,
};
use cora_transformer::autotune::EncoderAutotuner;
use cora_transformer::{encoder_layer_ragged, EncoderConfig, EncoderWeights, RaggedBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{requests, sub_seed, with_lengths};
use crate::trace::{Span, Tracer};
use crate::{secs, Args, Loop, Metric, Outcome};

/// Offered load of `serve_open`: the engine is about a fifth busy on a
/// 2-CPU host, so a slow phase of the host lengthens service times
/// without queueing them into a backlog.
const OPEN_RATE_RPS: f64 = 10.0;
/// Requests per `serve_open` segment: 2.5 s of arrivals.
const OPEN_SEGMENT_REQUESTS: usize = 25;
/// Requests per `serve_burst` burst, all due at t = 0.
const BURST_REQUESTS: usize = 128;
/// Runs (segments, bursts or rounds) per loop at least, however long
/// they take.
const MIN_RUNS: usize = 3;
/// Due time of every request of a served encoder batch. The feeder
/// thread sends the whole batch in a few microseconds once it is due,
/// while the server sleeps on its empty queue; waking it takes longer,
/// so the server finds the whole batch queued. Due at 0, the server
/// raced the feeder and split a partly queued batch differently from
/// round to round.
const BATCH_DUE_NS: u64 = 1_000_000;
/// Dispatch deadline of the server of a served encoder batch: longer
/// than any round, so no request is ever overdue.
const BATCH_MAX_WAIT_NS: u64 = 60_000_000_000;
/// Servers built and timed for `setup_s`, each serving one request. A
/// probe takes about 0.3 ms, most of it thread start-up and wake-up,
/// whose jitter needs many samples.
const SETUP_PROBES: usize = 41;
/// Largest accepted absolute difference from the ragged kernels.
const TOLERANCE: f32 = 1e-3;

/// The server's fixed inputs.
struct Env {
    cfg: EncoderConfig,
    weights: EncoderWeights,
    pool: CpuPool,
}

impl Env {
    fn new(args: &Args) -> Env {
        let cfg = EncoderConfig::scaled(8);
        Env {
            weights: EncoderWeights::random(&cfg, sub_seed(args.seed, 5)),
            cfg,
            pool: CpuPool::host(),
        }
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig::new(self.cfg)
    }

    /// A server with `ServerConfig::new` defaults, Strict math and no
    /// autotuning.
    fn server(&self) -> Server {
        Server::with_tuner(self.server_config(), self.weights.clone(), disabled_tuner())
    }

    /// Serves `trace` on `server`. Returns the seconds from entering
    /// `run_threaded` to the first admitted request (the run's event log
    /// stamps it on a clock started as `run_threaded` is entered) and the
    /// run's report.
    fn serve_on(&self, server: &mut Server, trace: Vec<Request>) -> (f64, SimReport) {
        let report = server.run_threaded(trace, &self.pool);
        let first_admit_s = report
            .events
            .iter()
            .find(|e| e.contains(" admit "))
            .and_then(|e| e.strip_prefix("t=")?.split(' ').next()?.parse::<u64>().ok())
            .map_or(f64::NAN, |ns| ns as f64 / 1e9);
        (first_admit_s, report)
    }

    /// Serves `trace` on a fresh server. Returns the set-up time
    /// (construction up to the first admitted request) and the report.
    fn serve(&self, trace: Vec<Request>) -> (f64, SimReport) {
        let t0 = Instant::now();
        let mut server = self.server();
        let built_s = secs(t0);
        let (first_admit_s, report) = self.serve_on(&mut server, trace);
        (built_s + first_admit_s, report)
    }

    /// `setup_s` samples: `SETUP_PROBES` fresh servers, each serving
    /// `probe` alone.
    fn setup_samples(&self, probe: &Request) -> Vec<f64> {
        (0..SETUP_PROBES)
            .map(|_| self.serve(vec![probe.clone()]).0)
            .collect()
    }
}

fn disabled_tuner() -> EncoderAutotuner {
    let mut tuner = EncoderAutotuner::new(TuneBudget::default(), 0);
    tuner.disabled = true;
    tuner
}

/// Checks every sent request against the ragged kernels run on that
/// request alone; returns per-request latency in ms for the correct
/// ones (`None` for failed, rejected, missing or wrong requests).
fn check_completions(env: &Env, sent: &[Request], report: &SimReport) -> Vec<Option<f64>> {
    let done: BTreeMap<u64, _> = report.completions.iter().map(|c| (c.id, c)).collect();
    sent.iter()
        .map(|req| {
            let c = done.get(&req.id)?;
            let rows = c.result.as_ref().ok()?;
            let solo = RaggedBatch {
                lens: vec![req.len],
                data: req.data.clone(),
                hidden: env.cfg.hidden,
            };
            let reference = encoder_layer_ragged(&env.pool, &env.cfg, &env.weights, &solo);
            let worst = if rows.len() == reference.data.len() {
                rows.iter()
                    .zip(&reference.data)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max)
            } else {
                f32::INFINITY
            };
            (worst <= TOLERANCE).then(|| (c.complete_ns - c.arrival_ns) as f64 / 1e6)
        })
        .collect()
}

/// The measured requests of one loop, over all its runs.
#[derive(Default)]
struct Served {
    /// Latency in ms of every correct request.
    ok_ms: Vec<f64>,
    /// Requests sent.
    sent: usize,
    /// Engine busy time: the sum over batches of dispatch to completion.
    busy_ns: u64,
    /// Batches whose session the pool had to build.
    pool_misses: usize,
}

impl Served {
    /// Checks one run's outputs, counts them in `out` and adds them.
    fn add(&mut self, env: &Env, sent: &[Request], report: &SimReport, out: &mut Outcome) {
        let latencies = check_completions(env, sent, report);
        out.attempted += latencies.len() as u64;
        out.failed += latencies.iter().filter(|l| l.is_none()).count() as u64;
        self.ok_ms.extend(latencies.iter().flatten());
        self.sent += sent.len();
        self.busy_ns += report
            .batches
            .iter()
            .map(|b| b.complete_ns - b.dispatch_ns)
            .sum::<u64>();
        self.pool_misses += report.batches.iter().filter(|b| !b.pool_hit).count();
    }
}

/// One measured run, kept for the traced split.
struct Run {
    start: Instant,
    sent: Vec<Request>,
    report: SimReport,
    /// The server's pool counters before the run: they accumulate over
    /// all runs of one server.
    pool_before: PoolStats,
}

/// What a serving loop sends, and to which server.
enum Form {
    /// `serve_open`: one segment of the fixed-rate open loop per step,
    /// all on one server.
    Open(Server),
    /// `serve_burst`: one burst per step, each on a fresh server.
    Burst,
    /// An encoder workload's batch: one round per step on one server
    /// whose pool the first, unmeasured round warmed.
    Batch(Server, Vec<Request>),
}

/// A serving loop: one `Server::run_threaded` run per step, every
/// request checked.
pub struct Serving {
    env: Env,
    cfg: ServerConfig,
    form: Form,
    seed: u64,
    slo_ms: f64,
    /// A request for the `setup_s` probes, when the loop is the
    /// workload's own.
    setup_probe: Option<Request>,
    served: Served,
    /// The measured runs, kept when the loop is traced.
    runs: Option<Vec<Run>>,
    /// Index of the next run, which numbers its requests.
    next: usize,
    steps: usize,
    elapsed_s: f64,
}

impl Serving {
    fn new(
        args: &Args,
        env: Env,
        cfg: ServerConfig,
        form: Form,
        slo_ms: f64,
        traced: bool,
    ) -> Serving {
        Serving {
            env,
            cfg,
            form,
            seed: args.seed,
            slo_ms,
            setup_probe: None,
            served: Served::default(),
            runs: traced.then(Vec::new),
            next: 0,
            steps: 0,
            elapsed_s: 0.0,
        }
    }

    /// `serve_open`: unquantized MNLI lengths arriving at a fixed rate
    /// into a server with `ServerConfig::new` defaults, in segments of
    /// `OPEN_SEGMENT_REQUESTS` so that another loop can run between
    /// them; the server and its pool carry over.
    pub fn open(args: &Args, slo_ms: f64, traced: bool, out: &mut Outcome) -> Serving {
        let env = Env::new(args);
        let cfg = env.server_config();
        let server = env.server();
        let mut sv = Serving::new(args, env, cfg, Form::Open(server), slo_ms, traced);
        let first = sv.requests(0);
        out.param("rate_rps", OPEN_RATE_RPS);
        out.param("segment_requests", OPEN_SEGMENT_REQUESTS);
        sv.describe("MNLI", &first, out);
        sv.setup_probe = Some(first[0].clone());
        sv
    }

    /// `serve_burst`: bursts of `BURST_REQUESTS` MNLI requests, all due
    /// at t = 0, each on a fresh server with `ServerConfig::new` defaults.
    pub fn burst(args: &Args, slo_ms: f64, traced: bool, out: &mut Outcome) -> Serving {
        let env = Env::new(args);
        let cfg = env.server_config();
        let mut sv = Serving::new(args, env, cfg, Form::Burst, slo_ms, traced);
        let first = sv.requests(0);
        out.param("burst_requests", BURST_REQUESTS);
        sv.describe("MNLI", &first, out);
        sv.setup_probe = Some(first[0].clone());
        sv
    }

    /// Serving on an encoder workload's batch: one server serves the
    /// batch's `lens` as requests all due at once, round after round,
    /// with fresh ids every round. The first round compiles the batch's
    /// shapes into the pool; it is checked but not measured, so the loop
    /// measures serving with a warm pool — what the queue, policy, pool
    /// checkout, packing and unpacking add to the layer itself.
    pub fn batch(
        args: &Args,
        ds: Dataset,
        lens: &[usize],
        slo_ms: f64,
        traced: bool,
        out: &mut Outcome,
    ) -> Serving {
        let env = Env::new(args);
        let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 7));
        let template = with_lengths(lens, env.cfg.hidden, &mut rng, |_| BATCH_DUE_NS);
        // Two changes to the defaults keep every round's microbatches
        // the same, so the pool stays warm. The default 2 ms dispatch
        // deadline lifts length-class affinity for overdue requests; a
        // server thread woken a few ms late then split the batch
        // differently, and the new shapes evicted pooled ones. And a pool
        // as large as the batch holds every shape its split can make.
        let mut cfg = env.server_config();
        cfg.policy.max_wait_ns = BATCH_MAX_WAIT_NS;
        cfg.pool_capacity = cfg.pool_capacity.max(lens.len());
        let server = Server::with_tuner(cfg.clone(), env.weights.clone(), disabled_tuner());
        let form = Form::Batch(server, template);
        let mut sv = Serving::new(args, env, cfg, form, slo_ms, traced);
        let warm = sv.requests(0);
        sv.describe(ds.name(), &warm, out);
        let report = sv.serve(warm.clone());
        Served::default().add(&sv.env, &warm, &report, out);
        sv.next = 1;
        sv
    }

    /// The requests of run `k`.
    fn requests(&self, k: usize) -> Vec<Request> {
        let hidden = self.env.cfg.hidden;
        match &self.form {
            Form::Open(_) => {
                let gap_ns = (1e9 / OPEN_RATE_RPS) as u64;
                let mut segment = requests(
                    Dataset::Mnli,
                    OPEN_SEGMENT_REQUESTS,
                    hidden,
                    sub_seed(self.seed, 200 + k as u64),
                    |i| i as u64 * gap_ns,
                );
                for r in &mut segment {
                    r.id += (k * OPEN_SEGMENT_REQUESTS) as u64;
                }
                segment
            }
            Form::Burst => requests(
                Dataset::Mnli,
                BURST_REQUESTS,
                hidden,
                sub_seed(self.seed, 100 + k as u64),
                |_| 0,
            ),
            Form::Batch(_, template) => template
                .iter()
                .enumerate()
                .map(|(i, r)| Request {
                    id: (k * template.len() + i) as u64,
                    ..r.clone()
                })
                .collect(),
        }
    }

    /// Serves `sent` on the loop's server (a fresh one for bursts).
    fn serve(&mut self, sent: Vec<Request>) -> SimReport {
        match &mut self.form {
            Form::Open(server) | Form::Batch(server, _) => self.env.serve_on(server, sent).1,
            Form::Burst => self.env.serve(sent).1,
        }
    }

    fn pool_stats(&self) -> PoolStats {
        match &self.form {
            Form::Open(server) | Form::Batch(server, _) => server.pool_stats(),
            Form::Burst => PoolStats::default(),
        }
    }

    fn describe(&self, dataset: &str, sent: &[Request], out: &mut Outcome) {
        let rows: usize = sent.iter().map(|r| r.len).sum();
        out.param("dataset", dataset);
        out.param("requests_per_run", sent.len());
        out.param("rows_per_run", rows);
        out.param("slo_ms", self.slo_ms);
        out.param("max_batch_rows", self.cfg.policy.max_batch_rows);
        out.param("max_wait_us", self.cfg.policy.max_wait_ns / 1_000);
        out.param("pool_capacity", self.cfg.pool_capacity);
        out.param("threads", self.env.pool.threads());
        out.param("math", "strict");
        out.param("autotune", "off");
    }

    /// Reports the serving end-to-end metrics (and `setup_s` when the
    /// loop is the workload's own). `slo_attainment` counts requests
    /// sent, so a failed request misses the limit; `capacity_rps` is
    /// correct completions per second of engine busy time, which in a
    /// burst is the drain rate from the first dispatch.
    pub fn finish(self, out: &mut Outcome) {
        if let Some(probe) = &self.setup_probe {
            let setup = self.env.setup_samples(probe);
            out.metrics.push(Metric::timing("setup_s", "s", &setup));
        }
        let sv = &self.served;
        let within = sv.ok_ms.iter().filter(|&&l| l <= self.slo_ms).count();
        out.metrics.extend([
            Metric::timing("latency_p50_ms", "ms", &sv.ok_ms),
            tail_metric("latency_tail_ms", &sv.ok_ms),
            Metric::value(
                "slo_attainment",
                "share",
                within as f64 / sv.sent.max(1) as f64,
            ),
            Metric::value(
                "capacity_rps",
                "1/s",
                sv.ok_ms.len() as f64 / (sv.busy_ns.max(1) as f64 / 1e9),
            ),
        ]);
        out.info.extend([
            Metric::value("serve.runs", "count", self.steps as f64),
            Metric::value("serve.pool_misses", "count", sv.pool_misses as f64),
        ]);
    }

    /// Reports the per-layer split of the measured runs, recording their
    /// spans in `tr`.
    pub fn finish_traced(self, tr: &mut Tracer, out: &mut Outcome) {
        let runs = self.runs.as_deref().unwrap_or_default();
        traced(&self.env, &self.cfg, runs, tr, out);
    }
}

impl Loop for Serving {
    fn step(&mut self, out: &mut Outcome) {
        let sent = self.requests(self.next);
        let pool_before = self.pool_stats();
        let start = Instant::now();
        let report = self.serve(sent.clone());
        self.elapsed_s += secs(start);
        self.served.add(&self.env, &sent, &report, out);
        if let Some(runs) = &mut self.runs {
            runs.push(Run {
                start,
                sent,
                report,
                pool_before,
            });
        }
        self.next += 1;
        self.steps += 1;
    }

    fn elapsed(&self) -> f64 {
        self.elapsed_s
    }

    fn done(&self, seconds: f64) -> bool {
        self.steps >= MIN_RUNS && self.elapsed_s >= seconds
    }
}

/// The tail value by the tail rule (the maximum if the sample is too
/// small to have one), with its percentile recorded.
fn tail_metric(name: &str, samples: &[f64]) -> Metric {
    let mut m = Metric::timing(name, "ms", samples);
    m.value = m.tail.map_or_else(
        || samples.iter().copied().fold(f64::NAN, f64::max),
        |t| t.value,
    );
    m
}

/// Per-layer split of measured runs. Queue wait and batch timings come
/// from each run's own completion and batch records; checkout, pack,
/// run and unpack come from replaying the run's batch sequence through a
/// fresh session pool of the same capacity.
fn traced(env: &Env, cfg: &ServerConfig, runs: &[Run], tr: &mut Tracer, out: &mut Outcome) {
    let policy = &cfg.policy;
    let (mut waits, mut batch_ms) = (Vec::new(), Vec::new());
    let (mut n_batches, mut seqs, mut rows, mut req_rows) = (0usize, 0usize, 0usize, 0usize);
    let (mut busy_ns, mut span_ns, mut hits, mut misses, mut evictions) = (0u64, 0u64, 0, 0, 0);
    let (mut pack, mut unpack, mut run_ms, mut hit_us, mut miss_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());

    for run in runs {
        let (sent, report) = (&run.sent, &run.report);
        // The run's records count from its own start; the replay
        // follows them.
        let base = run.start.saturating_duration_since(tr.epoch()).as_nanos() as u64;
        for c in &report.completions {
            waits.push((c.dispatch_ns - c.arrival_ns) as f64 / 1e6);
            req_rows += c.len;
            let root = tr.record(Span {
                name: "serve.request".into(),
                start_ns: base + c.arrival_ns,
                end_ns: base + c.complete_ns,
                parent: None,
                req: c.id,
            });
            tr.record(Span {
                name: "queue.wait".into(),
                start_ns: base + c.arrival_ns,
                end_ns: base + c.dispatch_ns,
                parent: Some(root),
                req: c.id,
            });
        }
        for b in &report.batches {
            n_batches += 1;
            seqs += b.ids.len();
            rows += b.rows;
            busy_ns += b.complete_ns - b.dispatch_ns;
            batch_ms.push((b.complete_ns - b.dispatch_ns) as f64 / 1e6);
            tr.record(Span {
                name: "engine.batch".into(),
                start_ns: base + b.dispatch_ns,
                end_ns: base + b.complete_ns,
                parent: None,
                req: b.index as u64,
            });
        }
        span_ns += report.end_ns;
        hits += report.pool_stats.hits - run.pool_before.hits;
        misses += report.pool_stats.misses - run.pool_before.misses;
        evictions += report.pool_stats.evictions - run.pool_before.evictions;

        // Replay the batch sequence through the public layer calls.
        let by_id: BTreeMap<u64, &Request> = sent.iter().map(|r| (r.id, r)).collect();
        let results: BTreeMap<u64, &Vec<f32>> = report
            .completions
            .iter()
            .filter_map(|c| c.result.as_ref().ok().map(|r| (c.id, r)))
            .collect();
        let mut pool = SessionPool::new(
            cfg.encoder,
            MathMode::Strict,
            cfg.pool_capacity,
            disabled_tuner(),
        );
        let mut replay_ok = true;
        for b in &report.batches {
            tr.span("replay.batch", b.index as u64, |tr| {
                let selected: Vec<Request> = b.ids.iter().map(|id| by_id[id].clone()).collect();
                let (x, ns) = tr.span("request.pack", b.index as u64, |_| {
                    pack_ragged(&selected, cfg.encoder.hidden)
                });
                pack.push(ns as f64 / 1e3);
                let was_hit = pool.contains(&b.lens);
                let (mut session, ns) = tr.span("pool.checkout", b.index as u64, |_| {
                    pool.checkout(&b.lens).expect("built-in schedules compile")
                });
                if was_hit {
                    hit_us.push(ns as f64 / 1e3);
                } else {
                    miss_ms.push(ns as f64 / 1e6);
                }
                let (y, ns) = tr.span("engine.run", b.index as u64, |_| {
                    session.run(&env.pool, &env.weights, &x)
                });
                run_ms.push(ns as f64 / 1e6);
                let (split, ns) = tr.span("request.unpack", b.index as u64, |_| {
                    unpack_rows(&y, &b.lens, cfg.encoder.hidden)
                });
                unpack.push(ns as f64 / 1e3);
                tr.span("pool.check_in", b.index as u64, |_| pool.check_in(session));
                // A guaranteed hit, so the hit path is timed on every
                // workload (bursts of unquantized lengths never recur).
                let (again, ns) = tr.span("pool.checkout", b.index as u64, |_| {
                    pool.checkout(&b.lens)
                        .expect("the shape was just checked in")
                });
                hit_us.push(ns as f64 / 1e3);
                pool.check_in(again);
                for (id, rows) in b.ids.iter().zip(&split) {
                    replay_ok &= results
                        .get(id)
                        .is_some_and(|r| r.as_slice() == rows.as_slice());
                }
            });
        }
        out.check("replayed batches reproduce the served outputs", replay_ok);
    }
    out.checks.dedup();

    let mut m = vec![
        Metric::timing("queue.wait_p50_ms", "ms", &waits),
        tail_metric("queue.wait_tail_ms", &waits),
        Metric::value("policy.batches", "count", n_batches as f64),
        Metric::value(
            "policy.seqs_per_batch",
            "count",
            seqs as f64 / n_batches as f64,
        ),
        Metric::value(
            "policy.rows_per_batch",
            "count",
            rows as f64 / n_batches as f64,
        ),
        Metric::value(
            "policy.fill_ratio",
            "share",
            rows as f64 / n_batches as f64 / policy.max_batch_rows as f64,
        ),
        Metric::value(
            "pool.hit_ratio",
            "share",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        Metric::value("pool.misses", "count", misses as f64),
        Metric::value("pool.evictions", "count", evictions as f64),
        Metric::timing("pool.miss_ms", "ms", &miss_ms),
        Metric::timing("pool.hit_us", "us", &hit_us),
        Metric::timing("request.pack_us", "us", &pack),
        Metric::timing("request.unpack_us", "us", &unpack),
        Metric::timing("engine.batch_ms", "ms", &batch_ms),
        Metric::timing("engine.run_ms", "ms", &run_ms),
        Metric::value(
            "engine.busy_share",
            "share",
            busy_ns as f64 / span_ns.max(1) as f64,
        ),
        Metric::value(
            "engine.computed_rows_ratio",
            "x",
            rows as f64 / req_rows.max(1) as f64,
        ),
    ];
    m.push(Metric::value("trace.span_ns", "ns", span_cost_ns()));
    out.metrics.extend(m);
}

/// Cost of recording one empty span, in ns: the tracing overhead per
/// recorded call of the replay.
fn span_cost_ns() -> f64 {
    const N: u64 = 10_000;
    let mut tr = Tracer::new();
    let t = Instant::now();
    for i in 0..N {
        tr.span("bench.empty", i, |_| ());
    }
    t.elapsed().as_nanos() as f64 / N as f64
}
