//! Shared measurement machinery: statistics, process counters, the host
//! fingerprint, the run report, spans, and per-layer accumulation from the
//! data the program's own calls return.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ngb_exec::{Arena, ExecutionTrace};
use ngb_graph::{Graph, NonGemmGroup, OpClass};
use ngb_tensor::random::TensorRng;

use crate::Args;

/// Each run sets its workload up at least this many times, and keeps
/// repeating while the set-ups so far took under [`SETUP_BUDGET`], up to
/// [`SETUP_MAX_REPS`]; `setup_s` is the median. Fast set-ups thus get
/// more repetitions, which keeps their median steady.
pub const SETUP_MIN_REPS: usize = 3;
pub const SETUP_MAX_REPS: usize = 100;
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------- stats

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly beyond the `q` quantile: what a percentile rests on.
pub fn beyond(n: usize, q: f64) -> usize {
    n - (q * n as f64).ceil() as usize
}

// ------------------------------------------------------ process counters

/// User + system CPU time of this process (all threads) from
/// `/proc/self/stat`, at the kernel's 100 Hz tick.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One line describing the host and the engine settings of this run.
pub fn fingerprint(args: &Args, engine: &str, threads: usize, intra_op: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    format!(
        "host nproc={nproc} avx2={avx2} fma={fma} engine={engine} engine_threads={threads} \
         intra_op={} seed={} seconds={} trace={}",
        if intra_op { "on" } else { "off" },
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    )
}

/// Derives an independent 64-bit stream value from `seed` and `salt`
/// (splitmix64), so every input of a run follows from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]), dropping every
/// result but the last, and returns it with the median set-up time in
/// seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64() && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        let built = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    let built = last.expect("at least one set-up ran");
    Ok((built, median(&times)))
}

/// Times `TensorRng::kaiming_into` over every parameterised node's
/// `param_count()` — the RNG call the executor makes for weights — drawing
/// buffers from an [`Arena`] as the executor does. Returns the parameter
/// count and the median milliseconds of three passes.
pub fn weight_synth(graph: &Graph) -> (usize, f64) {
    let arena = Arena::default();
    let params: usize = graph.iter().map(|n| n.op.param_count()).sum();
    let mut passes = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        for node in graph.iter() {
            let n = node.op.param_count();
            if n > 0 {
                let mut rng = TensorRng::seed(node.id.0 as u64);
                let w = rng.kaiming_into(arena.take(n), &[n], 1);
                arena.reclaim(std::hint::black_box(w));
            }
        }
        passes.push(ms(t0.elapsed()));
    }
    (params, median(&passes))
}

// ---------------------------------------------------------------- report

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One pass/fail check with its evidence.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Builds a [`Check`].
pub fn check(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name: name.into(),
        ok,
        detail: detail.into(),
    }
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Host and engine fingerprint line.
    pub host: String,
    /// Ops started in the timed phase(s).
    pub attempted: u64,
    /// Ops that errored or failed their output check.
    pub failed: u64,
    /// End-to-end metrics (the `--trace 0` result set).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics every workload measures (the `--trace 1` set).
    pub layers: Vec<Metric>,
    /// Further measurements printed in the report lines only: metrics
    /// specific to this workload's layers and supporting sample counts.
    pub extra: Vec<Metric>,
    /// Output checks and trace self-checks.
    pub checks: Vec<Check>,
    /// Free-form findings printed as comment lines.
    pub notes: Vec<String>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Report {
    /// Prints the report lines and, last, the one-line JSON result.
    pub fn print(&self, args: &Args) {
        println!(
            "# ngbench workload={} seed={} seconds={} trace={}",
            args.workload,
            args.seed,
            args.seconds.as_secs_f64(),
            u8::from(args.trace)
        );
        println!("# {}", self.host);
        for n in &self.notes {
            println!("# {n}");
        }
        println!(
            "# ops attempted={} succeeded={} failed={}",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
        let show = |kind: &str, list: &[Metric]| {
            for m in list {
                println!("{kind} {} = {} {}", m.name, m.value, m.unit);
            }
        };
        show("e2e", &self.e2e);
        if args.trace {
            show("layer", &self.layers);
        }
        show("extra", &self.extra);
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            println!("check {} {verdict}: {}", c.name, c.detail);
        }
        let chosen = if args.trace { &self.layers } else { &self.e2e };
        let finite = chosen.iter().all(|m| m.value.is_finite());
        let correct = finite && self.failed == 0 && self.checks.iter().all(|c| c.ok);
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in chosen.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// The end-to-end metric set shared by every workload. `latencies_ms`
/// are per-op latencies; `tail_q` is the workload's fixed tail quantile.
pub struct E2e<'a> {
    pub setup_s: f64,
    pub latencies_ms: &'a [f64],
    pub tail_q: f64,
    pub good_ops: u64,
    pub measured: Duration,
    pub cpu: Duration,
    pub ops: u64,
    pub peak_rss_mb: f64,
}

impl E2e<'_> {
    /// The metrics, plus the sample counts behind the percentiles.
    pub fn metrics(&self) -> (Vec<Metric>, Vec<Metric>) {
        let n = self.latencies_ms.len();
        let e2e = vec![
            metric("setup_s", self.setup_s, "s"),
            metric("latency_ms_p50", median(self.latencies_ms), "ms"),
            metric(
                "latency_ms_tail",
                quantile(self.latencies_ms, self.tail_q),
                "ms",
            ),
            metric(
                "goodput_per_s",
                self.good_ops as f64 / self.measured.as_secs_f64(),
                "1/s",
            ),
            metric("cpu_ms_per_op", ms(self.cpu) / self.ops.max(1) as f64, "ms"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
        ];
        let extra = vec![
            metric("latency.samples", n as f64, "count"),
            metric("latency.tail_quantile", self.tail_q, "ratio"),
            metric(
                "latency.samples_beyond_tail",
                beyond(n, self.tail_q) as f64,
                "count",
            ),
        ];
        (e2e, extra)
    }
}

// --------------------------------------------------------------- tracing

/// One recorded interval. Times are nanoseconds from the tracer's epoch.
pub struct Span {
    pub name: String,
    pub start: u64,
    pub dur: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder: spans are kept until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from `start` to `end` under `parent`.
    pub fn span(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.into(),
            start: s,
            dur: e.saturating_sub(s),
            parent,
        });
        self.spans.len() - 1
    }

    /// Adds one `ops.<kind>` child per executed node under the span
    /// `parent` (the call that returned `trace`), placed by the node's
    /// recorded offset and clipped to the parent.
    pub fn kernels(&mut self, parent: usize, graph: &Graph, trace: &ExecutionTrace) {
        let (p_start, p_end) = (
            self.spans[parent].start,
            self.spans[parent].start + self.spans[parent].dur,
        );
        for t in &trace.timings {
            let s = (p_start + t.start.as_nanos() as u64).min(p_end);
            let e = (s + t.elapsed.as_nanos() as u64).min(p_end);
            self.spans.push(Span {
                name: format!("ops.{}", graph.node(t.id).op.name()),
                start: s,
                dur: e - s,
                parent: Some(parent),
            });
        }
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.start + s.dur));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.start + s.dur));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur.saturating_sub(covered)
            })
            .collect()
    }

    /// Self-time milliseconds per layer (the span name up to its first
    /// `.`), and the total duration of root spans.
    pub fn layer_self_ms(&self) -> (BTreeMap<String, f64>, f64) {
        let mut by_layer = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let layer = s.name.split('.').next().unwrap_or("").to_string();
            *by_layer.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        let roots = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur as f64 / 1e6)
            .sum();
        (by_layer, roots)
    }

    /// Checks that the layer self-times account for the root spans' wall
    /// time and that no span escapes its parent.
    pub fn self_check(&self, what: &str) -> Check {
        let (layers, roots) = self.layer_self_ms();
        let accounted: f64 = layers.values().sum();
        let escaped = self.spans.iter().filter(|s| match s.parent {
            Some(p) => {
                let q = &self.spans[p];
                s.start < q.start || s.start + s.dur > q.start + q.dur
            }
            None => false,
        });
        let escaped = escaped.count();
        let ok = roots > 0.0 && (accounted - roots).abs() <= 1e-6 * roots + 1e-3 && escaped == 0;
        let shares: Vec<String> = layers
            .iter()
            .map(|(l, v)| format!("{l}={:.1}%", 100.0 * v / roots.max(f64::MIN_POSITIVE)))
            .collect();
        check(
            format!("trace.self_times_account_for_{what}"),
            ok,
            format!(
                "{} spans, self-time sum {accounted:.3} ms vs wall {roots:.3} ms, \
                 {escaped} escaping spans; self-time shares {}",
                self.spans.len(),
                shares.join(" ")
            ),
        )
    }

    /// Writes the first `max_spans` spans as a Chrome trace (`chrome://tracing`).
    pub fn write_chrome(&self, path: &std::path::Path, max_spans: usize) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().take(max_spans).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.start as f64 / 1e3,
                s.dur as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64)
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Where a traced run writes its spans, relative to the working directory.
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    std::path::PathBuf::from(format!(
        "ngbench/out/{}-seed{}.trace.json",
        args.workload, args.seed
    ))
}

// ------------------------------------------------------- layer accounting

/// Per-layer sums over the traced ops, read from the `ExecutionTrace`s the
/// interpreter returns (or, for serving, from the response records).
#[derive(Default)]
pub struct LayerAcc {
    /// Ops the sums cover.
    pub ops: u64,
    /// Interpreter runs and executed nodes (fractional when a served batch
    /// is shared by several requests).
    pub runs: f64,
    pub nodes: f64,
    pub run_ms: f64,
    pub kernel_ms: f64,
    pub gemm_ms: f64,
    pub groups: BTreeMap<NonGemmGroup, f64>,
    pub kinds: BTreeMap<&'static str, f64>,
    pub bytes_materialized: u64,
    pub peak_live_bytes: usize,
    pub arena_hits: u64,
    pub arena_misses: u64,
    /// `breakdown_from_trace` totals (non-GEMM and all seconds).
    pub profiler_non_gemm_s: f64,
    pub profiler_total_s: f64,
    pub weight_synth_ms: f64,
    pub params: f64,
}

impl LayerAcc {
    /// Adds one `Interpreter::run` of `graph` that took `wall`.
    pub fn absorb(&mut self, graph: &Graph, trace: &ExecutionTrace, wall: Duration) {
        self.runs += 1.0;
        self.nodes += graph.len() as f64;
        self.run_ms += ms(wall);
        for t in &trace.timings {
            let op = &graph.node(t.id).op;
            let k = ms(t.elapsed);
            self.kernel_ms += k;
            match op.class() {
                OpClass::Gemm => self.gemm_ms += k,
                OpClass::NonGemm(g) => *self.groups.entry(g).or_insert(0.0) += k,
            }
            *self.kinds.entry(op.name()).or_insert(0.0) += k;
        }
        self.bytes_materialized += trace.bytes_materialized();
        self.peak_live_bytes = self.peak_live_bytes.max(trace.peak_live_bytes);
        self.arena_hits += trace.arena.hits;
        self.arena_misses += trace.arena.misses;
        let b = ngb_profiler::breakdown_from_trace(graph, &trace.timings);
        self.profiler_non_gemm_s += b.non_gemm_s();
        self.profiler_total_s += b.total_s;
    }

    /// Adds the memory counters of a run whose timings are accounted
    /// elsewhere (serving: the solo check runs).
    pub fn absorb_memory(&mut self, trace: &ExecutionTrace) {
        self.bytes_materialized += trace.bytes_materialized();
        self.peak_live_bytes = self.peak_live_bytes.max(trace.peak_live_bytes);
        self.arena_hits += trace.arena.hits;
        self.arena_misses += trace.arena.misses;
    }

    fn group_ms(&self, g: NonGemmGroup) -> f64 {
        self.groups.get(&g).copied().unwrap_or(0.0)
    }

    /// The per-layer metrics every workload reports, then the workload's
    /// own extras (groups and op kinds at ≥ 1 % of kernel time).
    /// `byte_runs` is the number of runs the byte counter covers.
    pub fn metrics(
        &self,
        build_ms: f64,
        trace_overhead_ms: f64,
        byte_runs: usize,
    ) -> (Vec<Metric>, Vec<Metric>) {
        let per = |v: f64| v / self.ops.max(1) as f64;
        let kernel = per(self.kernel_ms);
        let run = per(self.run_ms);
        let synth = per(self.weight_synth_ms);
        let hits = self.arena_hits + self.arena_misses;
        let layers = vec![
            metric("tensor.params_per_op", per(self.params), "count"),
            metric("tensor.weight_synth_ms", synth, "ms"),
            metric(
                "tensor.weight_synth_share",
                synth / kernel.max(f64::MIN_POSITIVE),
                "ratio",
            ),
            metric("ops.gemm_ms", per(self.gemm_ms), "ms"),
            metric(
                "ops.normalization_ms",
                per(self.group_ms(NonGemmGroup::Normalization)),
                "ms",
            ),
            metric(
                "ops.activation_ms",
                per(self.group_ms(NonGemmGroup::Activation)),
                "ms",
            ),
            metric(
                "ops.memory_ms",
                per(self.group_ms(NonGemmGroup::Memory)),
                "ms",
            ),
            metric(
                "ops.arithmetic_ms",
                per(self.group_ms(NonGemmGroup::Arithmetic)),
                "ms",
            ),
            metric(
                "ops.other_ms",
                per(self.group_ms(NonGemmGroup::Other)),
                "ms",
            ),
            metric(
                "ops.bytes_materialized_kb",
                self.bytes_materialized as f64 / 1024.0 / byte_runs.max(1) as f64 * per(self.runs),
                "KB",
            ),
            metric("exec.run_ms", run, "ms"),
            metric("exec.kernel_ms", kernel, "ms"),
            metric("exec.overhead_ms", run - kernel, "ms"),
            metric("exec.runs_per_op", per(self.runs), "count"),
            metric("exec.nodes_per_op", per(self.nodes), "count"),
            metric(
                "exec.peak_live_mb",
                self.peak_live_bytes as f64 / (1024.0 * 1024.0),
                "MB",
            ),
            metric(
                "exec.arena_hit_rate",
                self.arena_hits as f64 / hits.max(1) as f64,
                "ratio",
            ),
            metric(
                "profiler.non_gemm_share",
                self.profiler_non_gemm_s / self.profiler_total_s.max(f64::MIN_POSITIVE),
                "ratio",
            ),
            metric("models.build_ms", build_ms, "ms"),
            metric("trace.overhead_ms", trace_overhead_ms, "ms"),
        ];
        let mut extra = Vec::new();
        for g in [
            NonGemmGroup::LogitComputation,
            NonGemmGroup::RoiSelection,
            NonGemmGroup::Interpolation,
            NonGemmGroup::Pooling,
            NonGemmGroup::Embedding,
            NonGemmGroup::Collective,
        ] {
            let name = format!("ops.{}_ms", g.label().to_lowercase());
            extra.push(metric(name, per(self.group_ms(g)), "ms"));
        }
        for (kind, v) in &self.kinds {
            if *v >= 0.01 * self.kernel_ms {
                extra.push(metric(format!("ops.kind.{kind}_ms"), per(*v), "ms"));
            }
        }
        (layers, extra)
    }

    /// The traced run's arithmetic self-checks.
    pub fn checks(&self) -> Vec<Check> {
        let groups: f64 = self.gemm_ms + self.groups.values().sum::<f64>();
        let kinds: f64 = self.kinds.values().sum();
        let tol = 1e-9 * self.kernel_ms.max(1.0);
        let overhead = self.run_ms - self.kernel_ms;
        vec![
            check(
                "trace.groups_sum_to_kernel",
                (groups - self.kernel_ms).abs() <= tol
                    && (self.kinds.is_empty() || (kinds - self.kernel_ms).abs() <= tol),
                format!(
                    "gemm + groups {groups:.6} ms, op kinds {kinds:.6} ms (none when only \
                     groups are reported), kernel {:.6} ms",
                    self.kernel_ms
                ),
            ),
            check(
                "trace.kernel_plus_overhead_is_run",
                (self.kernel_ms + overhead - self.run_ms).abs() <= tol
                    && self.weight_synth_ms <= self.kernel_ms + tol,
                format!(
                    "kernel {:.3} + overhead {overhead:.3} = run {:.3} ms; weight synthesis \
                     {:.3} ms within kernel time",
                    self.kernel_ms, self.run_ms, self.weight_synth_ms
                ),
            ),
            check(
                "trace.profiler_matches_kernel",
                (self.profiler_total_s * 1e3 - self.kernel_ms).abs()
                    <= 1e-6 * self.kernel_ms.max(1.0),
                format!(
                    "breakdown_from_trace total {:.6} ms vs kernel {:.6} ms",
                    self.profiler_total_s * 1e3,
                    self.kernel_ms
                ),
            ),
        ]
    }
}
