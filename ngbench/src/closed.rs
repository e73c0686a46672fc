//! The two closed-loop whole-model workloads: `profile-tiny` (one pass over
//! all 18 tiny registry models, sequential engine) and `infer-full` (one
//! full-scale MobileNetV2 inference on the parallel engine with intra-op
//! chunking). One caller starts the next op when the previous one ends.

use std::time::{Duration, Instant};

use ngb_exec::{Engine, Interpreter, Quant};
use ngb_graph::{Graph, NodeId};
use ngb_models::{ModelId, Scale};
use ngb_tensor::{bit_equal, Tensor};

use crate::measure::{
    check, cpu_time, fingerprint, median, metric, mix, ms, peak_rss_mb, repeat_setup, trace_path,
    weight_synth, E2e, LayerAcc, Report, Tracer,
};
use crate::Args;

/// Tail quantile of both workloads: the highest percentile a run's sample
/// keeps at least ten ops beyond (ops take 0.2–0.35 s, so a run holds
/// tens of them, not hundreds).
const TAIL_Q: f64 = 0.8;

struct Spec {
    models: Vec<ModelId>,
    scale: Scale,
    engine: Engine,
    intra_op: bool,
    /// Engines whose outputs the timed engine must reproduce bit for bit.
    check_engines: Vec<Engine>,
}

/// `profile-tiny`: one op is one sequential pass over all 18 tiny models
/// in registry order, the work of `nongemm-cli run --measured --tiny`.
pub fn profile_tiny(args: &Args) -> Result<Report, String> {
    run(
        args,
        &Spec {
            models: ModelId::all().to_vec(),
            scale: Scale::Tiny,
            engine: Engine::Sequential,
            intra_op: false,
            check_engines: vec![Engine::Parallel(2)],
        },
    )
}

/// `infer-full`: one op is one full-scale MobileNetV2 inference on the
/// parallel engine with intra-op chunking on. The engine gets one pool
/// worker, not two: on a shared 2-vCPU host a descheduled second worker
/// stalls every node it holds, which spread the median across runs by half
/// its value, while a second worker shortened an op by only ~5 %. One
/// worker still runs the scheduler, the pool and the chunked kernels.
pub fn infer_full(args: &Args) -> Result<Report, String> {
    run(
        args,
        &Spec {
            models: vec![ModelId::MobileNetV2],
            scale: Scale::Full,
            engine: Engine::Parallel(1),
            intra_op: true,
            check_engines: vec![Engine::Sequential, Engine::Parallel(2)],
        },
    )
}

fn interpreter(seed: u64, engine: Engine, intra_op: bool) -> Interpreter {
    Interpreter::new(seed)
        .engine(engine)
        .intra_op(intra_op)
        .sanitize(false)
        .quantize(Quant::None)
}

type Outputs = Vec<(NodeId, Tensor)>;

/// One timed phase: per-op latencies and the outputs each op produced
/// (`None` when a run failed).
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    outputs: Vec<Option<Vec<Outputs>>>,
    measured: Duration,
    cpu: Duration,
}

fn run(args: &Args, spec: &Spec) -> Result<Report, String> {
    let seed = mix(args.seed, 1);
    let interp = interpreter(seed, spec.engine, spec.intra_op);
    let mut build_ms = Vec::new();
    let ((graphs, reference), setup_s) = repeat_setup(|| {
        let t0 = Instant::now();
        let graphs = spec
            .models
            .iter()
            .map(|m| m.build(1, spec.scale))
            .collect::<Result<Vec<Graph>, _>>()
            .map_err(|e| format!("graph build: {e}"))?;
        build_ms.push(ms(t0.elapsed()));
        // one warm-up op per model; its outputs are the reference
        let reference = graphs
            .iter()
            .map(|g| interp.run(g).map(|t| t.outputs))
            .collect::<Result<Vec<Outputs>, _>>()
            .map_err(|e| format!("warm-up run: {e}"))?;
        Ok((graphs, reference))
    })?;

    let untraced_for = args.untraced_for();
    let untraced = timed(&interp, &graphs, untraced_for, None);
    let peak_rss = peak_rss_mb();

    let mut report = Report {
        host: fingerprint(
            args,
            match spec.engine {
                Engine::Sequential => "sequential",
                Engine::Parallel(_) => "parallel",
            },
            spec.engine.threads(),
            spec.intra_op,
        ),
        ..Report::default()
    };

    let mut acc = LayerAcc::default();
    let mut tracer = Tracer::new();
    let traced = if args.trace {
        timed(
            &interp,
            &graphs,
            args.seconds - untraced_for,
            Some((&mut tracer, &mut acc)),
        )
    } else {
        Phase::default()
    };

    // ---- output checks, outside every timed phase
    let mut failed = 0u64;
    let all_ops = untraced.outputs.iter().chain(&traced.outputs);
    for op in all_ops {
        let same = op.as_ref().is_some_and(|runs| {
            runs.iter()
                .zip(&reference)
                .all(|(got, want)| same_outputs(got, want))
        });
        failed += u64::from(!same);
    }
    let attempted = (untraced.outputs.len() + traced.outputs.len()) as u64;
    report.checks.push(check(
        "outputs.bit_identical_across_repeats",
        failed == 0,
        format!(
            "{} of {attempted} ops reproduced the warm-up outputs",
            attempted - failed
        ),
    ));
    for &engine in &spec.check_engines {
        let other = interpreter(seed, engine, spec.intra_op);
        let matching = graphs
            .iter()
            .zip(&reference)
            .filter(|(g, want)| other.run(g).is_ok_and(|t| same_outputs(&t.outputs, want)))
            .count();
        report.checks.push(check(
            format!("outputs.bit_identical_to_{engine:?}"),
            matching == graphs.len(),
            format!("{matching} of {} models match", graphs.len()),
        ));
    }
    report.attempted = attempted;
    report.failed = failed;

    let succeeded = untraced.outputs.iter().filter(|o| o.is_some()).count() as u64;
    let (e2e, extra) = E2e {
        setup_s,
        latencies_ms: &untraced.latencies_ms,
        tail_q: TAIL_Q,
        good_ops: succeeded,
        measured: untraced.measured,
        cpu: untraced.cpu,
        ops: untraced.latencies_ms.len() as u64,
        peak_rss_mb: peak_rss,
    }
    .metrics();
    report.e2e = e2e;
    report.extra = extra;

    if args.trace {
        for g in &graphs {
            let (params, synth_ms) = weight_synth(g);
            acc.params += (params as u64 * acc.ops) as f64;
            acc.weight_synth_ms += synth_ms * acc.ops as f64;
        }
        let overhead = median(&traced.latencies_ms) - median(&untraced.latencies_ms);
        let (layers, extra) = acc.metrics(median(&build_ms), overhead, acc.runs as usize);
        report.layers = layers;
        report.extra.extend(extra);
        report.extra.push(metric(
            "trace.latency_ms_p50_traced",
            median(&traced.latencies_ms),
            "ms",
        ));
        report.checks.extend(acc.checks());
        report.checks.push(tracer.self_check("op_wall"));
        tracer
            .write_chrome(&trace_path(args), 20_000)
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(report)
}

/// Runs ops back to back for `dur`. With a tracer, each op records a
/// `bench.op` span, one `exec.run` span per `Interpreter::run` call and
/// one `ops.<kind>` span per executed node, and feeds the layer sums; the
/// recording happens inside the op, so the op's latency includes it.
fn timed(
    interp: &Interpreter,
    graphs: &[Graph],
    dur: Duration,
    mut tracing: Option<(&mut Tracer, &mut LayerAcc)>,
) -> Phase {
    let mut phase = Phase::default();
    let cpu0 = cpu_time();
    let start = Instant::now();
    while start.elapsed() < dur {
        let t0 = Instant::now();
        let mut outs = Some(Vec::with_capacity(graphs.len()));
        let mut calls = Vec::new();
        for g in graphs {
            let c0 = Instant::now();
            let result = interp.run(g);
            let c1 = Instant::now();
            match result {
                Ok(trace) => {
                    if let Some((tracer, acc)) = tracing.as_mut() {
                        let span = tracer.span("exec.run", None, c0, c1);
                        tracer.kernels(span, g, &trace);
                        acc.absorb(g, &trace, c1 - c0);
                        calls.push(span);
                    }
                    if let Some(o) = outs.as_mut() {
                        o.push(trace.outputs);
                    }
                }
                Err(_) => outs = None,
            }
        }
        if let Some((tracer, acc)) = tracing.as_mut() {
            let end = Instant::now();
            let root = tracer.span("bench.op", None, t0, end);
            for span in calls {
                tracer.spans[span].parent = Some(root);
            }
            acc.ops += 1;
        }
        phase.latencies_ms.push(ms(t0.elapsed()));
        phase.outputs.push(outs);
    }
    phase.measured = start.elapsed();
    phase.cpu = cpu_time() - cpu0;
    phase
}

fn same_outputs(got: &Outputs, want: &Outputs) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((ia, a), (ib, b))| ia == ib && bit_equal(a, b).unwrap_or(false))
}
