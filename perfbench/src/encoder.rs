//! The encoder loop: a closed loop of single encoder layer calls on one
//! seeded ragged batch — the compiled layer against the hand-written
//! ragged kernels and the fully padded baseline. It is the own loop of
//! `encoder_mnli` and `encoder_race`, and the serving workloads run it
//! on 32 of their request lengths.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cora_core::program::CompiledProgram;
use cora_datasets::Dataset;
use cora_exec::microkernel::{dot_panel, exp_chunk, saxpy_panel, MathMode};
use cora_exec::vm::{BoundBuf, VmShared};
use cora_exec::{CpuPool, InterpStats};
use cora_transformer::encoder::max_divergence;
use cora_transformer::{
    encoder_layer_padded, encoder_layer_ragged, CompiledEncoderLayer, EncoderConfig, EncoderPrep,
    EncoderWeights, RaggedBatch,
};

use crate::inputs::sub_seed;
use crate::trace::Tracer;
use crate::{ms, secs, stats, Args, Loop, Metric, Outcome};

/// Set-ups (build + prepare) per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Measured rounds per run at least, however long they take.
const MIN_ROUNDS: usize = 6;
/// Largest accepted absolute difference from the ragged kernels.
const TOLERANCE: f32 = 1e-3;
/// Calls per microkernel / runtime-region sample in the traced run.
const KERNEL_REPS: usize = 2_000;

/// The encoder pipeline's wiring, as `CompiledEncoderLayer::build` lays
/// it out: per stage, its input parameters bound to buffers, and the
/// buffer it writes. The traced run replays it to run each stage alone,
/// and checks the chained result against the pipeline's own output.
type Wire = (
    &'static str,
    &'static [(&'static str, &'static str)],
    &'static str,
);
const WIRING: [Wire; 21] = [
    ("qkv_proj", &[("In", "X"), ("W", "Wqkv")], "QKV0"),
    ("qkv_bias", &[("In", "QKV0"), ("B", "Bqkv")], "QKV"),
    ("scores", &[("QKV", "QKV")], "S0"),
    ("scale", &[("S", "S0")], "S"),
    ("row_max", &[("S", "S")], "M"),
    ("row_exp", &[("S", "S"), ("M", "M")], "EX"),
    ("row_sum", &[("Ex", "EX")], "E"),
    ("row_softmax", &[("Ex", "EX"), ("E", "E")], "P"),
    ("attnv", &[("P", "P"), ("QKV", "QKV")], "O"),
    ("out_proj", &[("O", "O"), ("W", "Wo")], "AO"),
    (
        "attn_bias_residual",
        &[("In", "AO"), ("B", "Bo"), ("R", "X")],
        "Y1",
    ),
    ("ln1_sum", &[("In", "Y1")], "S1"),
    ("ln1_var", &[("In", "Y1"), ("S", "S1")], "V1"),
    (
        "ln1_norm",
        &[
            ("In", "Y1"),
            ("S", "S1"),
            ("V", "V1"),
            ("G", "Ln1G"),
            ("Bt", "Ln1B"),
        ],
        "Z1",
    ),
    ("ff1", &[("In", "Z1"), ("W", "W1")], "F0"),
    ("ff1_bias_gelu", &[("In", "F0"), ("B", "B1")], "F"),
    ("ff2", &[("In", "F"), ("W", "W2")], "G0"),
    (
        "ff_bias_residual",
        &[("In", "G0"), ("B", "B2"), ("R", "Z1")],
        "Y2",
    ),
    ("ln2_sum", &[("In", "Y2")], "S2"),
    ("ln2_var", &[("In", "Y2"), ("S", "S2")], "V2"),
    (
        "ln2_norm",
        &[
            ("In", "Y2"),
            ("S", "S2"),
            ("V", "V2"),
            ("G", "Ln2G"),
            ("Bt", "Ln2B"),
        ],
        "OUT",
    ),
];

/// The workload's fixed inputs.
struct Inputs {
    cfg: EncoderConfig,
    w: EncoderWeights,
    x: RaggedBatch,
    max_len: usize,
    x_padded: Vec<f32>,
    pool: CpuPool,
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Inputs {
    /// The batch of `ds`-distributed `lens` with its weights and padded
    /// copy; records the batch's parameters.
    fn new(args: &Args, ds: Dataset, lens: &[usize], out: &mut Outcome) -> Inputs {
        let cfg = EncoderConfig::scaled(8);
        let w = EncoderWeights::random(&cfg, sub_seed(args.seed, 5));
        let x = RaggedBatch::random(lens, cfg.hidden, sub_seed(args.seed, 6));
        let n_seqs = lens.len();
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let x_padded = x.to_padded(max_len);
        let rows = x.rows();
        let padded_rows = n_seqs * max_len;
        let pool = CpuPool::host();
        out.param("dataset", ds.name());
        out.param("sequences", n_seqs);
        out.param("rows", rows);
        out.param("max_len", max_len);
        out.param("padded_rows", padded_rows);
        out.param(
            "padding_share",
            format!("{:.3}", 1.0 - rows as f64 / padded_rows as f64),
        );
        out.param("math", "strict");
        out.param("threads", pool.threads());
        Inputs {
            cfg,
            w,
            x,
            max_len,
            x_padded,
            pool,
        }
    }
}

/// Runs the traced encoder loop for `seconds` on the batch of
/// `ds`-distributed `lens`, recording its spans in `tr`.
pub fn run_traced(
    args: &Args,
    ds: Dataset,
    lens: &[usize],
    seconds: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let inp = Inputs::new(args, ds, lens, out);
    traced(seconds, &inp, tr, out);
}

/// Which implementation one timed call runs.
#[derive(Clone, Copy)]
enum Call {
    Compiled,
    Padded,
    Ragged,
    Serial,
}

/// The measured encoder loop on one batch, one round per step: the
/// compiled layer on the host pool and on the calling thread, the ragged
/// kernels and the padded baseline.
pub struct Bench {
    inp: Inputs,
    layer: CompiledEncoderLayer,
    prep: EncoderPrep,
    /// The first compiled output; every later one must equal it.
    first: Vec<f32>,
    /// Set-up times, when the loop is the workload's own.
    setup_s: Option<Vec<f64>>,
    compiled: Vec<f64>,
    padded: Vec<f64>,
    ragged: Vec<f64>,
    serial: Vec<f64>,
    rounds: usize,
    elapsed_s: f64,
}

impl Bench {
    /// Builds the layer for the batch of `ds`-distributed `lens` and
    /// checks its outputs. With `own_setup` the loop is the workload's
    /// own, and the set-up is timed `SETUP_REPS` times for `setup_s`.
    pub fn new(
        args: &Args,
        ds: Dataset,
        lens: &[usize],
        own_setup: bool,
        out: &mut Outcome,
    ) -> Bench {
        let inp = Inputs::new(args, ds, lens, out);
        let Inputs {
            cfg,
            w,
            x,
            max_len,
            x_padded,
            pool,
        } = &inp;

        // Set-up: lower + compile every stage, then prepare the session
        // (preludes, safety proofs, arena) — what a new batch shape costs.
        let setup_reps = if own_setup { SETUP_REPS } else { 1 };
        let mut setup_s = Vec::with_capacity(setup_reps);
        let mut built = None;
        for _ in 0..setup_reps {
            drop(built.take());
            let t = Instant::now();
            let layer =
                CompiledEncoderLayer::build(cfg, &x.lens).expect("built-in schedules lower");
            let prep = layer
                .prepare()
                .expect("built-in schedules outline and verify");
            setup_s.push(secs(t));
            built = Some((layer, prep));
        }
        let (layer, mut prep) = built.expect("at least one set-up");

        // Output checks, outside the timed loop. The ragged kernels are
        // the independent reference; the padded baseline must agree with
        // them on every valid row.
        let mut session = layer.session_with(&mut prep);
        let reference = encoder_layer_ragged(pool, cfg, w, x);
        let first = session.forward(pool, w, x);
        let serial = session.forward_serial(w, x);
        let padded = encoder_layer_padded(pool, cfg, w, &x.lens, *max_len, x_padded);
        out.check(
            "compiled vs ragged kernels within 1e-3",
            max_abs_diff(&first, &reference.data) <= TOLERANCE,
        );
        out.check(
            "compiled parallel bit-identical to serial",
            bit_identical(&first, &serial),
        );
        out.check(
            "padded baseline vs ragged kernels within 1e-3",
            max_divergence(&reference, &padded, *max_len) <= TOLERANCE,
        );
        Bench {
            inp,
            layer,
            prep,
            first,
            setup_s: own_setup.then_some(setup_s),
            compiled: Vec::new(),
            padded: Vec::new(),
            ragged: Vec::new(),
            serial: Vec::new(),
            rounds: 0,
            elapsed_s: 0.0,
        }
    }

    /// Reports the loop's metrics.
    pub fn finish(self, out: &mut Outcome) {
        let (c, p, r, s) = (&self.compiled, &self.padded, &self.ragged, &self.serial);
        if let Some(setup_s) = &self.setup_s {
            out.metrics.push(Metric::timing("setup_s", "s", setup_s));
        }
        out.metrics.extend([
            Metric::timing("layer_ms", "ms", c),
            Metric::timing("layer_serial_ms", "ms", s),
            Metric::timing("ragged_ms", "ms", r),
            Metric::timing("padded_ms", "ms", p),
            Metric::value("speedup_vs_padded", "x", stats::paired_ratio_median(p, c)),
            Metric::value("ratio_vs_ragged", "x", stats::paired_ratio_median(c, r)),
        ]);
        out.info
            .push(Metric::value("encoder.rounds", "count", self.rounds as f64));
    }
}

impl Loop for Bench {
    /// One round of every implementation, in an order that reverses
    /// every round so no implementation always runs first; each ratio
    /// pairs calls of the same round. Each implementation runs twice in
    /// a row and only the second call is timed: a call right after a
    /// different implementation runs up to 40 % slower (caches and clock
    /// speed still set by the previous one), and a layer stack calls the
    /// same implementation back to back. Every compiled output, timed or
    /// not, is compared with the first.
    fn step(&mut self, out: &mut Outcome) {
        let t0 = Instant::now();
        let Inputs {
            cfg,
            w,
            x,
            max_len,
            x_padded,
            pool,
        } = &self.inp;
        let mut session = self.layer.session_with(&mut self.prep);
        let order = if self.rounds.is_multiple_of(2) {
            [Call::Padded, Call::Compiled, Call::Ragged, Call::Serial]
        } else {
            [Call::Serial, Call::Ragged, Call::Compiled, Call::Padded]
        };
        for call in order {
            for timed in [false, true] {
                let t = Instant::now();
                let (samples, y) = match call {
                    Call::Compiled => (&mut self.compiled, Some(session.forward(pool, w, x))),
                    Call::Serial => (&mut self.serial, Some(session.forward_serial(w, x))),
                    Call::Padded => {
                        black_box(encoder_layer_padded(
                            pool, cfg, w, &x.lens, *max_len, x_padded,
                        ));
                        (&mut self.padded, None)
                    }
                    Call::Ragged => {
                        black_box(encoder_layer_ragged(pool, cfg, w, x));
                        (&mut self.ragged, None)
                    }
                };
                if timed {
                    samples.push(ms(t));
                }
                if let Some(y) = y {
                    out.attempted += 1;
                    out.failed += u64::from(!bit_identical(&y, &self.first));
                }
            }
        }
        self.rounds += 1;
        self.elapsed_s += secs(t0);
    }

    fn elapsed(&self) -> f64 {
        self.elapsed_s
    }

    fn done(&self, seconds: f64) -> bool {
        self.rounds >= MIN_ROUNDS && self.elapsed_s >= seconds
    }
}

/// One pipeline stage prepared to run alone on the calling thread.
struct StageAlone<'p> {
    label: &'static str,
    prog: &'p CompiledProgram,
    shared: VmShared<'p>,
    inputs: &'static [(&'static str, &'static str)],
    output: &'static str,
}

impl StageAlone<'_> {
    /// Runs the stage on `bufs`, replacing its output buffer; returns
    /// the stage time in ms (output initialisation included, as in the
    /// pipeline).
    fn run(&self, bufs: &mut BTreeMap<&'static str, Vec<f32>>) -> f64 {
        let mut dst = bufs
            .remove(self.output)
            .unwrap_or_else(|| vec![0.0; self.prog.output_size()]);
        let t = Instant::now();
        dst.fill(self.prog.output_init());
        let mut binds: Vec<(&str, BoundBuf<'_>)> = self
            .inputs
            .iter()
            .map(|(param, buf)| (*param, BoundBuf::In(&bufs[buf][..])))
            .collect();
        binds.push((self.prog.output_name(), BoundBuf::Out(&mut dst)));
        black_box(self.shared.run_borrowed(binds));
        let elapsed = ms(t);
        bufs.insert(self.output, dst);
        elapsed
    }
}

fn traced(seconds: f64, inp: &Inputs, tr: &mut Tracer, out: &mut Outcome) {
    let Inputs {
        cfg, w, x, pool, ..
    } = inp;

    // Set-up layers: lowering + bytecode compilation, then prepare
    // (preludes, safety verification, dispatch orders, arena).
    let (layer, build_ns) = tr.span("lower.build", 0, |_| {
        CompiledEncoderLayer::build(cfg, &x.lens).expect("built-in schedules lower")
    });
    let (mut prep, prepare_ns) = tr.span("prepare.layer", 0, |_| {
        layer
            .prepare()
            .expect("built-in schedules outline and verify")
    });
    let pipeline = layer.pipeline().expect("the batch is not empty");
    let mut prep_stage_ms = Vec::new();
    tr.span("prepare.stages", 0, |tr| {
        for (label, prog) in pipeline.stage_programs() {
            let ((), ns) = tr.span(&format!("prepare.stage.{label}"), 0, |_| {
                black_box(prog.build_prelude());
                black_box(prog.parallel_prep().expect("built-in schedules verify"));
            });
            prep_stage_ms.push((label.to_string(), ns as f64 / 1e6));
        }
    });
    let (mut instrs, mut fused) = (0usize, 0usize);
    for (_, prog) in pipeline.stage_programs() {
        instrs += prog.vm().len();
        let (a, b, c) = prog.vm().fused_counts();
        fused += a + b + c;
    }

    // Each stage alone, wired as the pipeline wires it.
    let labels = pipeline.stage_labels();
    out.check(
        "stage wiring table matches the pipeline's stages",
        labels.len() == WIRING.len() && labels.iter().zip(&WIRING).all(|(l, w)| *l == w.0),
    );
    let stages: Vec<StageAlone<'_>> = pipeline
        .stage_programs()
        .zip(&WIRING)
        .map(|((_, prog), &(label, inputs, output))| StageAlone {
            label,
            prog,
            shared: prog.serial_shared().0,
            inputs,
            output,
        })
        .collect();
    let mut bufs: BTreeMap<&'static str, Vec<f32>> = BTreeMap::from([
        ("X", x.data.clone()),
        ("Wqkv", w.wqkv.clone()),
        ("Bqkv", w.bqkv.clone()),
        ("Wo", w.wo.clone()),
        ("Bo", w.bo.clone()),
        ("W1", w.w1.clone()),
        ("B1", w.b1.clone()),
        ("W2", w.w2.clone()),
        ("B2", w.b2.clone()),
        ("Ln1G", w.ln1_g.clone()),
        ("Ln1B", w.ln1_b.clone()),
        ("Ln2G", w.ln2_g.clone()),
        ("Ln2B", w.ln2_b.clone()),
    ]);
    for st in &stages {
        st.run(&mut bufs);
    }

    let mut session = layer.session_with(&mut prep);
    let first = session.run(Some(pool), w, x);
    let reference = encoder_layer_ragged(pool, cfg, w, x);
    out.check(
        "compiled vs ragged kernels within 1e-3",
        max_abs_diff(&first.output, &reference.data) <= TOLERANCE,
    );
    out.check(
        "stages run alone chain to the pipeline's output bit for bit",
        bit_identical(&bufs["OUT"], &first.output),
    );
    let vm_stats = first.total_stats();

    // Microkernel inputs: one QKV-projection output row (k = hidden,
    // n = 3·hidden) and one query row against 64 keys at head_dim.
    let (h, hd) = (cfg.hidden, cfg.head_dim);
    let a_row: Vec<f32> = (0..h).map(|i| (i as f32 * 0.37).sin()).collect();
    let b_mat: Vec<f32> = (0..h * 3 * h).map(|i| (i as f32 * 0.11).cos()).collect();
    let keys: Vec<f32> = (0..64 * hd).map(|i| (i as f32 * 0.23).sin()).collect();
    let exp_src: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) / 16.0).collect();

    let mut layer_traced = Vec::new();
    let mut layer_plain = Vec::new();
    let mut serial = Vec::new();
    let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); stages.len()];
    let (mut saxpy, mut dot, mut exp, mut exp_strict, mut region) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let per = |ns: u64| ns as f64 / KERNEL_REPS as f64;
    let t0 = Instant::now();
    let mut round = 0u64;
    while round < MIN_ROUNDS as u64 || secs(t0) < seconds {
        // Tracing overhead: the same call with and without its span.
        let t = Instant::now();
        let y = session.run(Some(pool), w, x);
        layer_plain.push(ms(t));
        out.attempted += 1;
        out.failed += u64::from(!bit_identical(&y.output, &first.output));
        tr.span("bench.round", round, |tr| {
            let (y, ns) = tr.span("pipeline.run", round, |_| session.run(Some(pool), w, x));
            layer_traced.push(ns as f64 / 1e6);
            let (ys, ns) = tr.span("pipeline.run_serial", round, |_| session.run(None, w, x));
            serial.push(ns as f64 / 1e6);
            out.attempted += 2;
            out.failed += u64::from(!bit_identical(&y.output, &first.output))
                + u64::from(!bit_identical(&ys.output, &first.output));
            tr.span("vm.stages", round, |tr| {
                for (st, samples) in stages.iter().zip(&mut stage_ms) {
                    let (t, _) = tr.span(&format!("vm.stage.{}", st.label), round, |_| {
                        st.run(&mut bufs)
                    });
                    samples.push(t);
                }
            });
            let ((), ns) = tr.span("microkernel.saxpy_panel", round, |_| {
                let mut o = vec![0.0f32; 3 * h];
                for _ in 0..KERNEL_REPS {
                    saxpy_panel(&mut o, black_box(&a_row), 0, 1, &b_mat, 0, 3 * h, h);
                }
                black_box(o);
            });
            saxpy.push(per(ns));
            let ((), ns) = tr.span("microkernel.dot_panel", round, |_| {
                let mut o = vec![0.0f32; 64];
                for _ in 0..KERNEL_REPS {
                    dot_panel(
                        &mut o,
                        0,
                        black_box(&a_row),
                        0,
                        0,
                        &keys,
                        0,
                        hd,
                        hd,
                        64,
                        MathMode::Strict,
                    );
                }
                black_box(o);
            });
            dot.push(per(ns));
            let elems = (KERNEL_REPS * exp_src.len()) as f64;
            let ((), ns) = tr.span("microkernel.exp_chunk", round, |_| {
                let mut o = vec![0.0f32; exp_src.len()];
                for _ in 0..KERNEL_REPS {
                    exp_chunk(&mut o, black_box(&exp_src));
                }
                black_box(o);
            });
            exp.push(ns as f64 / elems);
            let ((), ns) = tr.span("microkernel.exp_strict", round, |_| {
                let mut o = vec![0.0f32; exp_src.len()];
                for _ in 0..KERNEL_REPS {
                    for (d, s) in o.iter_mut().zip(black_box(&exp_src)) {
                        *d = s.exp();
                    }
                }
                black_box(o);
            });
            exp_strict.push(ns as f64 / elems);
            let ((), ns) = tr.span("runtime.region", round, |_| {
                for _ in 0..KERNEL_REPS {
                    pool.parallel_for(pool.threads(), |i| {
                        black_box(i);
                    });
                }
            });
            region.push(per(ns) / 1e3);
        });
        round += 1;
    }

    let layer_ms = stats::median(&layer_plain);
    let serial_ms = stats::median(&serial);
    let stage_medians: Vec<f64> = stage_ms.iter().map(|v| stats::median(v)).collect();
    let mut m = vec![
        Metric::value("lower.build_ms", "ms", build_ns as f64 / 1e6),
        Metric::value("lower.bytecode_instrs", "count", instrs as f64),
        Metric::value("lower.fused_instrs", "count", fused as f64),
        Metric::value("prepare.ms", "ms", prepare_ns as f64 / 1e6),
    ];
    for (label, t) in &prep_stage_ms {
        m.push(Metric::value(format!("prepare.stage.{label}_ms"), "ms", *t));
    }
    m.push(Metric::value(
        "pipeline.arena_elems",
        "count",
        pipeline.plan().arena_elems() as f64,
    ));
    m.push(Metric::value(
        "pipeline.arena_slots",
        "count",
        pipeline.plan().slot_count() as f64,
    ));
    for (st, samples) in stages.iter().zip(&stage_ms) {
        m.push(Metric::timing(
            format!("stage.{}_ms", st.label),
            "ms",
            samples,
        ));
    }
    m.push(Metric::value(
        "pipeline.overhead_ms",
        "ms",
        serial_ms - stage_medians.iter().sum::<f64>(),
    ));
    let InterpStats {
        flops,
        guards,
        aux_loads,
        stores,
    } = vm_stats;
    m.extend([
        Metric::value("vm.flops", "count", flops as f64),
        Metric::value("vm.stores", "count", stores as f64),
        Metric::value("vm.aux_loads", "count", aux_loads as f64),
        Metric::value("vm.guards", "count", guards as f64),
        Metric::timing("microkernel.saxpy_panel_ns", "ns", &saxpy),
        Metric::timing("microkernel.dot_panel_ns", "ns", &dot),
        Metric::timing("microkernel.exp_ns", "ns", &exp),
        Metric::timing("microkernel.exp_strict_ns", "ns", &exp_strict),
        Metric::timing("runtime.region_us", "us", &region),
        Metric::value("runtime.parallel_speedup", "x", serial_ms / layer_ms),
    ]);
    m.push(Metric::value(
        "trace.overhead_ms",
        "ms",
        stats::median(&layer_traced) - layer_ms,
    ));
    out.metrics.extend(m);
    out.info.extend([
        Metric::timing("layer_ms(untraced)", "ms", &layer_plain),
        Metric::timing("layer_ms(traced)", "ms", &layer_traced),
        Metric::value("rounds", "count", round as f64),
    ]);
}
