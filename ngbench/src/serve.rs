//! `serve-mix`: an open loop against an in-process `ngb_serve` server at
//! the default tiny-scale configuration. Poisson arrivals at a constant
//! 300 requests/s, mix `bert=2,resnet50=1,gpt2=1`, over one pipelined
//! connection driven by one sender and one receiver thread.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ngb_exec::{Interpreter, Quant};
use ngb_graph::{Graph, NonGemmGroup};
use ngb_models::Scale;
use ngb_opt::OptLevel;
use ngb_serve::protocol::{tensor_digest, Request};
use ngb_serve::{batching, ServeConfig, Server, ServerHandle};
use serde_json::Value;

use crate::measure::{
    check, cpu_time, fingerprint, median, metric, mix, ms, peak_rss_mb, quantile, repeat_setup,
    trace_path, weight_synth, E2e, LayerAcc, Report, Tracer,
};
use crate::Args;

/// Offered load: a constant, never derived from a capacity measured at
/// run time.
const RATE_PER_S: f64 = 300.0;
/// Model mix as (alias, weight).
const MIX: [(&str, u64); 3] = [("bert", 2), ("resnet50", 1), ("gpt2", 1)];
/// A request answered OK within this many ms counts towards goodput.
const LIMIT_MS: f64 = 50.0;
/// Distinct input seeds per model; requests draw from them, so the solo
/// reference runs of the output check stay few.
const SEEDS_PER_MODEL: u64 = 32;
/// p90, not p99: a run holds thousands of requests, but one stall of the
/// shared host delays every request queued behind it, and p99 then follows
/// the number of stalls in the run rather than the server (its spread
/// across five seeded runs reached half its median). p99 is still reported.
const TAIL_Q: f64 = 0.9;
/// Weight seed of the served graphs (the server default).
const WEIGHT_SEED: u64 = 0x5eed;

/// The server's default tiny-scale configuration, pinned so environment
/// overrides cannot change what is measured.
fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        scale: Scale::Tiny,
        opt_level: OptLevel::O0,
        max_batch: ngb_serve::DEFAULT_MAX_BATCH,
        batch_wait: Duration::from_micros(ngb_serve::DEFAULT_BATCH_WAIT_US),
        queue_cap: ngb_serve::DEFAULT_QUEUE_CAP,
        threads: 1,
        intra_op: Some(true),
        seed: WEIGHT_SEED,
    }
}

/// A started server that is drained and joined when dropped.
struct Running(Option<ServerHandle>);

impl Running {
    fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("server running").addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
            h.join();
        }
    }
}

/// A line-protocol connection with Nagle's algorithm off, writing each
/// request as one line in one write.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let io = |e: std::io::Error| format!("connection: {e}");
        let writer = TcpStream::connect(addr).map_err(io)?;
        writer.set_nodelay(true).map_err(io)?;
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(io)?;
        let reader = BufReader::new(writer.try_clone().map_err(io)?);
        Ok(Conn { writer, reader })
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        let mut line = req.to_line();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => serde_json::from_str(&line).map_err(|e| format!("bad response: {e}")),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// Starts the server and warms it: for every model and every batch size
/// its batching policy allows, pause, queue that many requests, resume and
/// collect them, so every graph the timed phase can need is cached.
fn start_and_warm() -> Result<Running, String> {
    let server = Running(Some(
        Server::start(config()).map_err(|e| format!("server start: {e}"))?,
    ));
    let mut conn = Conn::open(server.addr())?;
    for (alias, _) in MIX {
        let model = batching::model_by_alias(alias).ok_or("unknown model")?;
        let max = batching::effective_max_batch(model, ngb_serve::DEFAULT_MAX_BATCH);
        for k in 1..=max {
            conn.send(&Request::Pause)?;
            conn.recv()?;
            for i in 0..k {
                conn.send(&Request::Infer {
                    id: format!("w{i}"),
                    model: alias.to_string(),
                    seed: i as u64,
                })?;
            }
            conn.send(&Request::Resume)?;
            // k results plus the resume acknowledgement, in any order
            for _ in 0..=k {
                let v = conn.recv()?;
                if v.get("ok").and_then(Value::as_bool) != Some(true) {
                    return Err(format!("warm-up request failed: {v:?}"));
                }
            }
        }
    }
    Ok(server)
}

/// One scheduled request.
struct Arrival {
    due: Duration,
    model: usize,
    seed: u64,
}

/// The seeded Poisson schedule for `dur`.
fn schedule(seed: u64, salt: u64, dur: Duration) -> Vec<Arrival> {
    let total_weight: u64 = MIX.iter().map(|(_, w)| w).sum();
    let mut out = Vec::new();
    let mut t = 0.0f64;
    for i in 0u64.. {
        let u = |k: u64| (mix(seed, salt + 4 * i + k) >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u(0)).ln() / RATE_PER_S;
        if t >= dur.as_secs_f64() {
            break;
        }
        let mut pick = (u(1) * total_weight as f64) as u64;
        let model = MIX
            .iter()
            .position(|&(_, w)| {
                let hit = pick < w;
                pick = pick.saturating_sub(w);
                hit
            })
            .unwrap_or(0);
        // seeds stay below 2^53: the wire carries them as JSON numbers
        let idx = (u(2) * SEEDS_PER_MODEL as f64) as u64;
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            model,
            seed: mix(seed, 1_000 + model as u64 * SEEDS_PER_MODEL + idx) >> 32,
        });
    }
    out
}

/// The fields of one response the benchmark uses, parsed on arrival so
/// the receiver keeps no JSON trees.
struct Reply {
    at: Instant,
    ok: bool,
    code: f64,
    queue_ms: f64,
    exec_ms: f64,
    batch: f64,
    digests: Vec<(f64, String)>,
    kernel_ms: f64,
    gemm_ms: f64,
    groups: Vec<(NonGemmGroup, f64)>,
}

impl Reply {
    fn parse(at: Instant, v: &Value) -> Reply {
        let r = &v["result"];
        let b = &r["breakdown"];
        let num = |x: &Value| x.as_f64().unwrap_or(0.0);
        let digests = r["outputs"]
            .as_array()
            .map(|outs| {
                outs.iter()
                    .map(|o| {
                        let digest = o["digest"].as_str().unwrap_or("").to_string();
                        (o["node"].as_f64().unwrap_or(-1.0), digest)
                    })
                    .collect()
            })
            .unwrap_or_default();
        let groups = b["groups"]
            .as_object()
            .map(|groups| {
                groups
                    .iter()
                    .map(|(key, v)| {
                        let g = NonGemmGroup::all()
                            .iter()
                            .copied()
                            .find(|g| format!("{g:?}") == *key || g.label() == key)
                            .unwrap_or(NonGemmGroup::Other);
                        (g, num(v) * 1e3)
                    })
                    .collect()
            })
            .unwrap_or_default();
        Reply {
            at,
            ok: v.get("ok").and_then(Value::as_bool) == Some(true),
            code: num(&v["error"]["code"]),
            queue_ms: num(&r["queue_us"]) / 1e3,
            exec_ms: num(&r["exec_us"]) / 1e3,
            batch: r["batch_size"].as_f64().unwrap_or(1.0).max(1.0),
            digests,
            kernel_ms: num(&b["total_s"]) * 1e3,
            gemm_ms: num(&b["gemm_s"]) * 1e3,
            groups,
        }
    }
}

/// When one request went out and what came back.
struct Outcome {
    sent: Instant,
    reply: Option<Reply>,
}

/// Sends `arrivals` on one connection from one sender thread while one
/// receiver thread collects the responses, correlated by `id`.
fn drive(addr: SocketAddr, arrivals: &[Arrival]) -> Result<(Instant, Vec<Outcome>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let lines: Vec<String> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let mut l = Request::Infer {
                id: i.to_string(),
                model: MIX[a.model].0.to_string(),
                seed: a.seed,
            }
            .to_line();
            l.push('\n');
            l
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let n = arrivals.len();
    let (sent, received) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sent = Vec::with_capacity(n);
            for (a, line) in arrivals.iter().zip(&lines) {
                let due = start + a.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                sent.push(Instant::now());
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            sent
        });
        let receiver = s.spawn(|| {
            let mut got: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
            let mut reader = BufReader::new(&stream);
            let mut line = String::new();
            for _ in 0..n {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = Instant::now();
                let Ok(v) = serde_json::from_str::<Value>(&line) else {
                    continue;
                };
                let id = v
                    .get("id")
                    .and_then(Value::as_str)
                    .and_then(|s| s.parse().ok());
                if let Some(slot) = id.and_then(|i: usize| got.get_mut(i)) {
                    *slot = Some(Reply::parse(at, &v));
                }
            }
            got
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let outcomes = received
        .into_iter()
        .enumerate()
        .map(|(i, reply)| Outcome {
            sent: sent.get(i).copied().unwrap_or(start),
            reply,
        })
        .collect();
    Ok((start, outcomes))
}

/// Per-request numbers read from one response.
struct Answer {
    latency_ms: f64,
    lag_ms: f64,
    queue_ms: f64,
    exec_ms: f64,
    batch: f64,
    digests_ok: bool,
}

/// One open-loop window.
#[derive(Default)]
struct Phase {
    answers: Vec<Answer>,
    attempted: u64,
    failed: u64,
    rejected: u64,
    wire_negative: usize,
    cache_hits: f64,
    cache_misses: f64,
    cpu: Duration,
}

/// Graph-cache hits and misses so far, over a short-lived stats connection.
fn cache_counts(addr: SocketAddr) -> Result<(f64, f64), String> {
    let mut conn = Conn::open(addr)?;
    conn.send(&Request::Stats)?;
    let v = conn.recv()?;
    let g = &v["stats"]["graph_cache"];
    Ok((
        g["hits"].as_f64().unwrap_or(0.0),
        g["misses"].as_f64().unwrap_or(0.0),
    ))
}

/// Solo `Interpreter` runs, one per (model, seed) used: the digests every
/// served response must reproduce.
struct Solo {
    graphs: Vec<Graph>,
    digests: HashMap<(usize, u64), Vec<(f64, String)>>,
}

impl Solo {
    fn build() -> Result<(Solo, f64), String> {
        let t0 = Instant::now();
        let graphs = MIX
            .iter()
            .map(|(alias, _)| {
                let m = batching::model_by_alias(alias).ok_or("unknown model")?;
                let g = m.build(1, Scale::Tiny).map_err(|e| e.to_string())?;
                Ok(ngb_opt::optimize(&g, OptLevel::O0).0)
            })
            .collect::<Result<Vec<Graph>, String>>()?;
        let build_ms = ms(t0.elapsed());
        Ok((
            Solo {
                graphs,
                digests: HashMap::new(),
            },
            build_ms,
        ))
    }

    fn digests(&mut self, model: usize, seed: u64, acc: &mut LayerAcc) -> &[(f64, String)] {
        let graph = &self.graphs[model];
        self.digests.entry((model, seed)).or_insert_with(|| {
            let run = batching::batched_inputs(graph, &[seed]).and_then(|inputs| {
                Interpreter::new(WEIGHT_SEED)
                    .sanitize(false)
                    .quantize(Quant::None)
                    .run_with_inputs(graph, &inputs)
            });
            match run {
                Ok(trace) => {
                    acc.absorb_memory(&trace);
                    trace
                        .outputs
                        .iter()
                        .map(|(id, t)| (id.0 as f64, tensor_digest(t)))
                        .collect()
                }
                Err(_) => Vec::new(),
            }
        })
    }
}

/// Runs one window, then checks every response against the solo digests
/// (outside the window). With a tracer, records one span tree per answered
/// request and feeds the layer sums.
fn window(
    addr: SocketAddr,
    arrivals: &[Arrival],
    solo: &mut Solo,
    synth: &[(usize, f64)],
    mut tracing: Option<(&mut Tracer, &mut LayerAcc)>,
    mem: &mut LayerAcc,
) -> Result<Phase, String> {
    let (h0, m0) = cache_counts(addr)?;
    let cpu0 = cpu_time();
    let (start, outcomes) = drive(addr, arrivals)?;
    let mut phase = Phase {
        cpu: cpu_time() - cpu0,
        attempted: arrivals.len() as u64,
        ..Phase::default()
    };
    let (h1, m1) = cache_counts(addr)?;
    phase.cache_hits = h1 - h0;
    phase.cache_misses = m1 - m0;

    for (a, o) in arrivals.iter().zip(&outcomes) {
        let Some(reply) = &o.reply else {
            phase.failed += 1;
            continue;
        };
        if !reply.ok {
            phase.failed += 1;
            if reply.code == 429.0 {
                phase.rejected += 1;
            }
            continue;
        }
        let due = start + a.due;
        let want = solo.digests(a.model, a.seed, mem);
        let ans = Answer {
            latency_ms: ms(reply.at.saturating_duration_since(due)),
            lag_ms: ms(o.sent.saturating_duration_since(due)),
            queue_ms: reply.queue_ms,
            exec_ms: reply.exec_ms,
            batch: reply.batch,
            digests_ok: !want.is_empty() && reply.digests == want,
        };
        if !ans.digests_ok {
            phase.failed += 1;
        }
        let wire = ans.latency_ms - ans.queue_ms - ans.exec_ms;
        if wire - ans.lag_ms < -1e-3 {
            phase.wire_negative += 1;
        }
        if let Some((tracer, acc)) = tracing.as_mut() {
            let sent = o.sent.max(due);
            let root = tracer.span("serve.request", None, due, reply.at);
            tracer.span("bench.lag", Some(root), due, sent);
            let q_end = sent + Duration::from_secs_f64(ans.queue_ms / 1e3);
            tracer.span("serve.queue", Some(root), sent, q_end);
            let e_end = q_end + Duration::from_secs_f64(ans.exec_ms / 1e3);
            let exec = tracer.span("exec.run", Some(root), q_end, e_end);
            let k_end = q_end + Duration::from_secs_f64(reply.kernel_ms / 1e3);
            tracer.span("ops.kernels", Some(exec), q_end, k_end.min(e_end));
            absorb_reply(acc, reply, &solo.graphs[a.model], synth[a.model]);
        }
        phase.answers.push(ans);
    }
    Ok(phase)
}

/// Adds one served request to the layer sums. A batch's executor run,
/// kernels and weights are shared by its requests, so each request is
/// charged `1 / batch` of them.
fn absorb_reply(acc: &mut LayerAcc, reply: &Reply, graph: &Graph, synth: (usize, f64)) {
    let share = 1.0 / reply.batch;
    acc.ops += 1;
    acc.runs += share;
    acc.nodes += graph.len() as f64 * share;
    acc.run_ms += reply.exec_ms * share;
    acc.kernel_ms += reply.kernel_ms * share;
    acc.gemm_ms += reply.gemm_ms * share;
    let mut non_gemm = 0.0;
    for &(g, v) in &reply.groups {
        non_gemm += v * share;
        *acc.groups.entry(g).or_insert(0.0) += v * share;
    }
    acc.profiler_non_gemm_s += non_gemm / 1e3;
    acc.profiler_total_s += reply.kernel_ms * share / 1e3;
    acc.params += synth.0 as f64 * share;
    acc.weight_synth_ms += synth.1 * share;
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (server, setup_s) = repeat_setup(start_and_warm)?;
    let addr = server.addr();
    let (mut solo, build_ms) = Solo::build()?;
    let synth: Vec<(usize, f64)> = if args.trace {
        solo.graphs.iter().map(weight_synth).collect()
    } else {
        Vec::new()
    };

    let untraced_for = args.untraced_for();
    let mut mem = LayerAcc::default();
    let first = schedule(args.seed, 0, untraced_for);
    let untraced = window(addr, &first, &mut solo, &synth, None, &mut mem)?;
    let peak_rss = peak_rss_mb();

    let mut tracer = Tracer::new();
    let mut acc = LayerAcc::default();
    let traced = if args.trace {
        let second = schedule(args.seed, 1 << 40, args.seconds - untraced_for);
        Some(window(
            addr,
            &second,
            &mut solo,
            &synth,
            Some((&mut tracer, &mut acc)),
            &mut mem,
        )?)
    } else {
        None
    };
    drop(server);

    let mut report = Report {
        host: fingerprint(args, "server-pool", config().threads, true),
        ..Report::default()
    };
    let phases: Vec<&Phase> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    report.attempted = phases.iter().map(|p| p.attempted).sum();
    report.failed = phases.iter().map(|p| p.failed).sum();
    let answered: usize = phases.iter().map(|p| p.answers.len()).sum();
    let digest_ok: usize = phases
        .iter()
        .map(|p| p.answers.iter().filter(|a| a.digests_ok).count())
        .sum();
    report.checks.push(check(
        "outputs.digests_equal_solo_runs",
        digest_ok == answered && report.failed == 0,
        format!(
            "{digest_ok} of {answered} answered requests match their solo run; {} of {} \
             requests failed or were rejected",
            report.failed, report.attempted
        ),
    ));
    let negative: usize = phases.iter().map(|p| p.wire_negative).sum();
    report.checks.push(check(
        "serve.queue_exec_wire_sum_to_latency",
        negative == 0,
        format!(
            "wire = latency - queue - exec is non-negative (after the generator's lag) for \
             {} of {answered} requests",
            answered - negative
        ),
    ));

    let latencies: Vec<f64> = untraced.answers.iter().map(|a| a.latency_ms).collect();
    let good = untraced
        .answers
        .iter()
        .filter(|a| a.digests_ok && a.latency_ms <= LIMIT_MS)
        .count() as u64;
    let (e2e, extra) = E2e {
        setup_s,
        latencies_ms: &latencies,
        tail_q: TAIL_Q,
        good_ops: good,
        measured: untraced_for,
        cpu: untraced.cpu,
        ops: untraced.attempted,
        peak_rss_mb: peak_rss,
    }
    .metrics();
    report.e2e = e2e;
    report.extra = extra;
    report.extra.extend([
        metric(
            "goodput_rps",
            good as f64 / untraced_for.as_secs_f64(),
            "1/s",
        ),
        metric("offered_rps", RATE_PER_S, "1/s"),
        metric("latency_ms_p99", quantile(&latencies, 0.99), "ms"),
    ]);

    let last = traced.as_ref().unwrap_or(&untraced);
    report.extra.extend(serve_metrics(last));
    if let Some(traced) = &traced {
        let lat: Vec<f64> = traced.answers.iter().map(|a| a.latency_ms).collect();
        let overhead = median(&lat) - median(&latencies);
        acc.bytes_materialized = mem.bytes_materialized;
        acc.peak_live_bytes = mem.peak_live_bytes;
        acc.arena_hits = mem.arena_hits;
        acc.arena_misses = mem.arena_misses;
        let (layers, extra) = acc.metrics(build_ms, overhead, solo.digests.len());
        report.layers = layers;
        report.extra.extend(extra);
        report
            .extra
            .push(metric("trace.latency_ms_p50_traced", median(&lat), "ms"));
        report.checks.extend(acc.checks());
        report.checks.push(tracer.self_check("request_latency"));
        tracer
            .write_chrome(&trace_path(args), 20_000)
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(report)
}

fn serve_metrics(p: &Phase) -> Vec<crate::measure::Metric> {
    let col = |f: fn(&Answer) -> f64| -> Vec<f64> { p.answers.iter().map(f).collect() };
    let queue = col(|a| a.queue_ms);
    let wire = col(|a| a.latency_ms - a.queue_ms - a.exec_ms);
    let lag = col(|a| a.lag_ms);
    let n = p.answers.len().max(1) as f64;
    let lookups = p.cache_hits + p.cache_misses;
    vec![
        metric("serve.queue_ms_p50", median(&queue), "ms"),
        metric("serve.queue_ms_p99", quantile(&queue, 0.99), "ms"),
        metric("serve.exec_ms_p50", median(&col(|a| a.exec_ms)), "ms"),
        metric("serve.wire_ms_p50", median(&wire), "ms"),
        metric(
            "serve.batch_size_mean",
            p.answers.iter().map(|a| a.batch).sum::<f64>() / n,
            "count",
        ),
        metric("serve.rejected", p.rejected as f64, "count"),
        metric(
            "serve.graph_cache_hit_rate",
            if lookups > 0.0 {
                p.cache_hits / lookups
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "serve.generator_lag_ms_max",
            lag.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
    ]
}
