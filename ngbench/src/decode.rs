//! `decode-b8`: closed-loop batched KV-cache decode. One caller serves a
//! tiny GPT-2 session and a tiny Llama-2 session side by side (batch 8,
//! prompt 16, 112 new tokens, fp32, sequential engine), stepping them in
//! turn; one op is one round: a `DecodeSession::step` of each. A round,
//! not a single step, is the op because the two models' steps differ in
//! cost, and a median over alternating steps would fall between the two
//! modes and jump between them from run to run.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ngb_exec::{synth_input, Engine, Interpreter, Quant};
use ngb_graph::{Graph, NodeId, OpKind};
use ngb_models::{decode_bundle, DecodeBundle, ModelId, Scale};
use ngb_runtime::{greedy_reference, synth_prompt, DecodeSession, KvCache, KvCacheStats};
use ngb_tensor::{max_abs_err, Tensor};

use crate::measure::{
    check, cpu_time, fingerprint, median, metric, mix, ms, peak_rss_mb, quantile, repeat_setup,
    trace_path, weight_synth, E2e, LayerAcc, Report, Tracer,
};
use crate::Args;

const MODELS: [ModelId; 2] = [ModelId::Gpt2, ModelId::Llama2_7b];
const BATCH: usize = 8;
const PROMPT: usize = 16;
const NEW_TOKENS: usize = 112;
const TOTAL: usize = PROMPT + NEW_TOKENS;
/// Steps per full session: the prompt, then one per generated token but
/// the last (whose probabilities come from the final step).
const STEPS: usize = TOTAL - 1;
/// Rounds take ~9 ms, so a run holds thousands: p99 keeps tens beyond it.
const TAIL_Q: f64 = 0.99;
/// The documented int8 envelope: largest absolute deviation of any
/// next-token probability from fp32 on the same token stream.
const INT8_PROB_TOL: f32 = 5e-2;

struct Lm {
    id: ModelId,
    bundle: DecodeBundle,
    prompt: Vec<Vec<i64>>,
}

/// One session of the timed phase: the tokens it generated per batch row,
/// and whether every step succeeded.
struct Session {
    tokens: Vec<Vec<i64>>,
    ok: bool,
}

/// The sessions served side by side (one per model) and the rounds made.
struct Pair {
    sessions: Vec<Session>,
    rounds: u64,
}

impl Pair {
    /// Whether every session stepped without error and generated a prefix
    /// of its model's reference tokens.
    fn matches(&self, references: &[Vec<Vec<i64>>]) -> bool {
        self.sessions.iter().zip(references).all(|(s, want)| {
            s.ok && s
                .tokens
                .iter()
                .zip(want)
                .all(|(got, want)| want.get(..got.len()) == Some(got.as_slice()))
        })
    }
}

#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    ttft_ms: Vec<f64>,
    pairs: Vec<Pair>,
    cache: KvCacheStats,
    measured: Duration,
    cpu: Duration,
}

/// What the traced phase records besides spans.
struct Probe<'a> {
    tracer: &'a mut Tracer,
    acc: &'a mut LayerAcc,
    /// Per model: the decode graph's inputs for a standalone
    /// `Interpreter::run` of the same graph after every step.
    inputs: Vec<HashMap<NodeId, Tensor>>,
    /// Per model: (parameters, weight-synthesis ms) of the decode graph.
    synth: Vec<(usize, f64)>,
    step_ms: Vec<f64>,
}

fn interpreter(seed: u64, quant: Quant) -> Interpreter {
    Interpreter::new(seed).sanitize(false).quantize(quant)
}

fn prompt_column(prompt: &[Vec<i64>], t: usize) -> Vec<i64> {
    prompt.iter().map(|row| row[t]).collect()
}

/// Greedy argmax per batch row; ties resolve to the lowest index, as in
/// `ngb_runtime::greedy_decode`.
fn argmax_rows(probs: &Tensor, batch: usize) -> Result<Vec<i64>, String> {
    let data = probs.to_vec_f32().map_err(|e| e.to_string())?;
    let vocab = data.len() / batch.max(1);
    Ok((0..batch)
        .map(|b| {
            let row = &data[b * vocab..(b + 1) * vocab];
            let mut best = 0usize;
            for (i, &p) in row.iter().enumerate() {
                if p > row[best] {
                    best = i;
                }
            }
            best as i64
        })
        .collect())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let seed = mix(args.seed, 3);
    let interp = interpreter(seed, Quant::None);
    let mut build_ms = Vec::new();
    let (lms, setup_s) = repeat_setup(|| {
        let mut lms = Vec::new();
        for (i, &id) in MODELS.iter().enumerate() {
            let t0 = Instant::now();
            let bundle = decode_bundle(id, Scale::Tiny, BATCH, TOTAL)
                .ok_or("not a decode-capable model")?
                .map_err(|e| format!("decode bundle: {e}"))?;
            build_ms.push(ms(t0.elapsed()));
            let prompt = synth_prompt(mix(args.seed, 30 + i as u64), &bundle.reference, PROMPT)
                .map_err(|e| format!("prompt: {e}"))?;
            // one warm-up step per model
            let mut warm =
                DecodeSession::new(bundle.decode.clone(), &bundle.reference, interp.clone())
                    .map_err(|e| format!("session: {e}"))?;
            warm.step(&prompt_column(&prompt, 0))
                .map_err(|e| format!("warm-up step: {e}"))?;
            lms.push(Lm { id, bundle, prompt });
        }
        Ok(lms)
    })?;

    let untraced_for = args.untraced_for();
    let untraced = timed(&interp, &lms, untraced_for, None);
    let peak_rss = peak_rss_mb();

    let mut tracer = Tracer::new();
    let mut acc = LayerAcc::default();
    let traced = if args.trace {
        let mut probe = Probe {
            inputs: lms
                .iter()
                .map(|lm| probe_inputs(seed, &lm.bundle.decode))
                .collect(),
            synth: lms
                .iter()
                .map(|lm| weight_synth(&lm.bundle.decode))
                .collect(),
            tracer: &mut tracer,
            acc: &mut acc,
            step_ms: Vec::new(),
        };
        let phase = timed(&interp, &lms, args.seconds - untraced_for, Some(&mut probe));
        Some((phase, probe.step_ms))
    } else {
        None
    };

    let mut report = Report {
        host: fingerprint(args, "sequential", 1, false),
        ..Report::default()
    };

    // ---- output check: every session's tokens equal greedy_reference, run
    // on the parallel engine (bit-identical to the sequential one) to keep
    // the check short
    let reference_interp = interp.clone().engine(Engine::Parallel(2)).intra_op(true);
    let mut references = Vec::new();
    for lm in &lms {
        let r = greedy_reference(
            &lm.bundle.reference,
            &reference_interp,
            &lm.prompt,
            NEW_TOKENS,
        )
        .map_err(|e| format!("greedy_reference: {e}"))?;
        references.push(r.tokens);
    }
    let pairs = untraced
        .pairs
        .iter()
        .chain(traced.iter().flat_map(|(p, _)| &p.pairs));
    let (mut attempted, mut failed, mut bad, mut n_pairs) = (0u64, 0u64, 0usize, 0usize);
    for pair in pairs {
        n_pairs += 1;
        attempted += pair.rounds;
        if !pair.matches(&references) {
            failed += pair.rounds;
            bad += 1;
        }
    }
    report.checks.push(check(
        "outputs.tokens_equal_greedy_reference",
        bad == 0,
        format!(
            "{} of {n_pairs} session pairs generated the reference tokens",
            n_pairs - bad
        ),
    ));
    report.attempted = attempted;
    report.failed = failed;

    let good_rounds: u64 = untraced
        .pairs
        .iter()
        .filter(|p| p.matches(&references))
        .map(|p| p.rounds)
        .sum();
    let (e2e, extra) = E2e {
        setup_s,
        latencies_ms: &untraced.latencies_ms,
        tail_q: TAIL_Q,
        good_ops: good_rounds,
        measured: untraced.measured,
        cpu: untraced.cpu,
        ops: untraced.latencies_ms.len() as u64,
        peak_rss_mb: peak_rss,
    }
    .metrics();
    report.e2e = e2e;
    report.extra = extra;
    let generated: usize = untraced
        .pairs
        .iter()
        .flat_map(|p| &p.sessions)
        .map(|s| s.tokens.iter().map(Vec::len).sum::<usize>())
        .sum();
    report.extra.extend([
        metric("ttft_ms_p50", median(&untraced.ttft_ms), "ms"),
        metric("ttft.samples", untraced.ttft_ms.len() as f64, "count"),
        metric(
            "tokens_per_s",
            generated as f64 / untraced.measured.as_secs_f64(),
            "1/s",
        ),
        metric(
            "latency_ms_p90",
            quantile(&untraced.latencies_ms, 0.9),
            "ms",
        ),
    ]);

    if let Some((traced, step_ms)) = traced {
        let overhead = median(&traced.latencies_ms) - median(&untraced.latencies_ms);
        let (layers, extra) = acc.metrics(median(&build_ms), overhead, acc.runs as usize);
        report.layers = layers;
        report.extra.extend(extra);
        report.extra.push(metric(
            "trace.latency_ms_p50_traced",
            median(&traced.latencies_ms),
            "ms",
        ));
        let mean_step = step_ms.iter().sum::<f64>() / step_ms.len().max(1) as f64;
        let mean_run = acc.run_ms / acc.runs.max(1.0);
        let (clone_ms, clone_bytes) = kv_clone(&lms);
        report.extra.extend([
            metric("runtime.step_ms", mean_step, "ms"),
            metric("runtime.session_overhead_ms", mean_step - mean_run, "ms"),
            metric("runtime.kv_clone_ms", clone_ms, "ms"),
            metric("runtime.kv_bytes_per_step", clone_bytes / 1024.0, "KB"),
            metric("runtime.kv_hit_rate", traced.cache.hit_rate(), "ratio"),
        ]);
        for (lm, reference) in lms.iter().zip(&references) {
            let err = int8_probe(seed, lm, reference)?;
            let alias = lm.id.spec().alias;
            report.extra.push(metric(
                format!("quant.int8_max_prob_err.{alias}"),
                f64::from(err),
                "abs",
            ));
            report.notes.push(format!(
                "quant {alias}: int8 max next-token probability error {err:.4e} \
                 (documented envelope {INT8_PROB_TOL:.0e}, {})",
                if err <= INT8_PROB_TOL {
                    "within"
                } else {
                    "OUTSIDE"
                }
            ));
        }
        report.checks.extend(acc.checks());
        report.checks.push(tracer.self_check("step_and_probe_wall"));
        tracer
            .write_chrome(&trace_path(args), 20_000)
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(report)
}

/// Synthesized inputs for a standalone run of a decode graph: same
/// shapes as the session feeds, so the kernels do the same work.
fn probe_inputs(seed: u64, decode: &Graph) -> HashMap<NodeId, Tensor> {
    decode
        .iter()
        .filter(|n| matches!(n.op, OpKind::Input | OpKind::InputIds { .. }))
        .map(|n| (n.id, synth_input(seed, n)))
        .collect()
}

/// Median time of the per-step cache clones (`KvCache::k_tensor` and
/// `v_tensor` for every layer) at each model's session dimensions, and the
/// bytes cloned, both averaged over the models (a round steps each once).
fn kv_clone(lms: &[Lm]) -> (f64, f64) {
    let (mut clone_ms, mut bytes) = (0.0, 0.0);
    for lm in lms {
        let caches: Vec<&ngb_graph::Node> = lm
            .bundle
            .decode
            .iter()
            .filter(|n| n.name.ends_with("kv.k_cache"))
            .collect();
        let Some([rows, cap, hd]) = caches.first().map(|n| n.out_shape.as_slice()) else {
            continue;
        };
        let (rows, cap, hd) = (*rows, *cap, *hd);
        let cache = KvCache::new(caches.len(), rows, cap, hd);
        let mut reps = Vec::new();
        for _ in 0..21 {
            let t0 = Instant::now();
            for layer in 0..cache.layers() {
                std::hint::black_box(cache.k_tensor(layer).ok());
                std::hint::black_box(cache.v_tensor(layer).ok());
            }
            reps.push(ms(t0.elapsed()));
        }
        clone_ms += median(&reps);
        bytes += (2 * caches.len() * rows * cap * hd * 4) as f64;
    }
    let n = lms.len().max(1) as f64;
    (clone_ms / n, bytes / n)
}

/// Largest |int8 − fp32| next-token probability over the workload's full
/// length, both sessions forced along the fp32 greedy token stream.
fn int8_probe(seed: u64, lm: &Lm, fp32_tokens: &[Vec<i64>]) -> Result<f32, String> {
    let forced = |quant: Quant| -> Result<Vec<Tensor>, String> {
        let mut session = DecodeSession::new(
            lm.bundle.decode.clone(),
            &lm.bundle.reference,
            interpreter(seed, quant),
        )
        .map_err(|e| e.to_string())?;
        let mut probs = Vec::with_capacity(NEW_TOKENS);
        for t in 0..STEPS {
            let ids = if t < PROMPT {
                prompt_column(&lm.prompt, t)
            } else {
                fp32_tokens.iter().map(|row| row[t - PROMPT]).collect()
            };
            let p = session.step(&ids).map_err(|e| e.to_string())?;
            if t + 1 >= PROMPT {
                probs.push(p);
            }
        }
        Ok(probs)
    };
    let (a, b) = (forced(Quant::None)?, forced(Quant::Int8)?);
    Ok(a.iter()
        .zip(&b)
        .map(|(x, y)| max_abs_err(x, y).unwrap_or(f32::INFINITY))
        .fold(0.0, f32::max))
}

/// Runs session pairs back to back for `dur`; every round (one step of
/// each model's session) is one op. A pair cut by the deadline keeps the
/// rounds it made.
fn timed(interp: &Interpreter, lms: &[Lm], dur: Duration, probe: Option<&mut Probe>) -> Phase {
    let mut phase = Phase::default();
    let mut probe = probe;
    let cpu0 = cpu_time();
    let start = Instant::now();
    while start.elapsed() < dur {
        let s0 = Instant::now();
        let mut pair = Pair {
            sessions: Vec::new(),
            rounds: 0,
        };
        let mut live = Vec::new();
        for lm in lms {
            let session = DecodeSession::new(
                lm.bundle.decode.clone(),
                &lm.bundle.reference,
                interp.clone(),
            );
            pair.sessions.push(Session {
                tokens: (0..BATCH).map(|_| Vec::with_capacity(NEW_TOKENS)).collect(),
                ok: session.is_ok(),
            });
            live.push((session.ok(), Vec::new()));
        }
        for t in 0..STEPS {
            if start.elapsed() >= dur || pair.sessions.iter().any(|s| !s.ok) {
                break;
            }
            let t0 = Instant::now();
            let mut steps = Vec::with_capacity(lms.len());
            for (m, lm) in lms.iter().enumerate() {
                let (Some(session), next) = &mut live[m] else {
                    continue;
                };
                let ids = if t < PROMPT {
                    prompt_column(&lm.prompt, t)
                } else {
                    std::mem::take(next)
                };
                let c0 = Instant::now();
                let result = session.step(&ids);
                let c1 = Instant::now();
                steps.push((c0, c1));
                let record = &mut pair.sessions[m];
                let Ok(probs) = result else {
                    record.ok = false;
                    continue;
                };
                if t + 1 >= PROMPT {
                    match argmax_rows(&probs, BATCH) {
                        Ok(ids) => {
                            for (row, &tok) in record.tokens.iter_mut().zip(&ids) {
                                row.push(tok);
                            }
                            *next = ids;
                        }
                        Err(_) => record.ok = false,
                    }
                    if t + 1 == PROMPT {
                        phase.ttft_ms.push(ms(Instant::now() - s0));
                    }
                }
            }
            let end = Instant::now();
            pair.rounds += 1;
            phase.latencies_ms.push(ms(end - t0));
            if let Some(p) = probe.as_mut() {
                let root = p.tracer.span("bench.op", None, t0, end);
                for &(c0, c1) in &steps {
                    p.tracer.span("runtime.step", Some(root), c0, c1);
                    p.step_ms.push(ms(c1 - c0));
                }
                p.acc.ops += 1;
                // each decode graph run standalone, outside the op
                for (m, lm) in lms.iter().enumerate() {
                    let (params, synth_ms) = p.synth[m];
                    p.acc.params += params as f64;
                    p.acc.weight_synth_ms += synth_ms;
                    let c0 = Instant::now();
                    if let Ok(trace) = interp.run_with_inputs(&lm.bundle.decode, &p.inputs[m]) {
                        let c1 = Instant::now();
                        let span = p.tracer.span("exec.run", None, c0, c1);
                        p.tracer.kernels(span, &lm.bundle.decode, &trace);
                        p.acc.absorb(&lm.bundle.decode, &trace, c1 - c0);
                    }
                }
            }
        }
        for session in live.iter().filter_map(|(s, _)| s.as_ref()) {
            let stats = session.cache_stats();
            phase.cache.appended_rows += stats.appended_rows;
            phase.cache.reused_rows += stats.reused_rows;
        }
        phase.pairs.push(pair);
    }
    phase.measured = start.elapsed();
    phase.cpu = cpu_time() - cpu0;
    phase
}
