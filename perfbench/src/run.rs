//! One benchmark run: set up, drive the closed loop, check every answer,
//! report.
//!
//! A workload is a stream of epochs. Epoch `e` is `reads_per_epoch` reads
//! from the cyclic read list, served as one `BatchExecutor::execute` batch,
//! followed by `writes_per_epoch` §6.2 writes (none on read-only
//! workloads). Every pass below runs the same epochs from the same freshly
//! built (or reloaded) state, so their answers must agree bit for bit.

use std::time::{Duration, Instant};

use kspin::core::snapshot::SnapshotFile;
use kspin::core::{BatchExecutor, NetworkDistance, QueryEngine, QueryStats, ServingQuery};
use kspin::prelude::SnapshotExtras;
use kspin::KspinSystem;

use crate::reference::Reference;
use crate::system::{apply, setup, BuildTimes, Built, ChKind, HlKind, OracleKind, Oracles};
use crate::trace::{Children, LayerTotals, QuerySpan, TracedDistance, TracedLowerBound};
use crate::util::{median, peak_rss_mib, quantile, result_hash, result_len, sub_seed};
use crate::workload::{generate, Inputs, Oracle, Spec, Write, WritePolicy};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed snapshot loads per run; `restart_ms` is their median. Read-only
/// workloads spread them over three points of the run (before, between
/// and after the passes), so one slow or fast spell of the host does not
/// set the whole figure.
const RESTART_LOADS: usize = 15;
/// Timed snapshot saves and validations per run.
const SNAPSHOT_REPS: usize = 5;
/// Reads a run must time at least, so that p99 has ten samples beyond it.
const MIN_SAMPLES: usize = 1_000;
/// The layer-sum check: query spans must cover this share of the traced
/// read phase's wall time.
pub const COVERAGE_TOLERANCE: (f64, f64) = (0.90, 1.0);

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The exact counters of the fixed `min_epochs` prefix: the `QueryStats`
/// totals and the Observation-1 split of the freshly built index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub dist_computations: usize,
    pub lb_computations: usize,
    pub heap_extractions: usize,
    pub pruned_candidates: usize,
    pub heap_pushes: usize,
    pub heap_pops: usize,
    pub nvd_terms: usize,
    pub small_terms: usize,
}

impl Fingerprint {
    fn new(s: &QueryStats, (nvd_terms, small_terms): (usize, usize)) -> Self {
        Fingerprint {
            dist_computations: s.dist_computations,
            lb_computations: s.lb_computations,
            heap_extractions: s.heap_extractions,
            pruned_candidates: s.pruned_candidates,
            heap_pushes: s.heap_pushes,
            heap_pops: s.heap_pops,
            nvd_terms,
            small_terms,
        }
    }
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: Fingerprint,
}

/// Failure bookkeeping: every check counts an attempt; a failed one is
/// logged to stderr (the first few) and counted.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("FAILED: {}", what());
            }
        }
    }
}

/// One pass over the epoch stream.
#[derive(Debug, Default)]
struct Pass {
    epochs: usize,
    /// Per-read result hash, in stream order.
    hashes: Vec<u64>,
    /// Per-read latency (single-client passes only).
    read_ns: Vec<u64>,
    /// Index into `read_ns` → query family (0 = ∨, 1 = ∧, 2 = top-k).
    family: Vec<u8>,
    writes: Vec<(Write, u64)>,
    /// Timed wall of the pass: reads and writes, no checking.
    wall_ns: u64,
    ops: u64,
    /// Operations per second of each epoch's timed wall.
    epoch_rates: Vec<f64>,
    /// `QueryStats` over the first `min_epochs` epochs.
    stats: QueryStats,
}

fn family(q: &ServingQuery) -> u8 {
    match q {
        ServingQuery::Bknn { op, .. } => match op {
            kspin::core::Op::Or => 0,
            kspin::core::Op::And => 1,
        },
        _ => 2,
    }
}

fn nanos(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

impl Pass {
    /// Closes an epoch that started at `(ops, wall_ns)`.
    fn end_epoch(&mut self, (ops, wall_ns): (u64, u64)) {
        let secs = (self.wall_ns - wall_ns) as f64 / 1e9;
        self.epoch_rates.push((self.ops - ops) as f64 / secs);
        self.epochs += 1;
    }
}

/// Runs the epoch's writes on `b`, timing each.
fn write_epoch<K: OracleKind>(
    b: &mut Built,
    policy: &mut WritePolicy,
    count: usize,
    pass: &mut Pass,
) {
    let mut dist = K::make(&b.oracles);
    for _ in 0..count {
        let w = policy.next(&b.sys.corpus);
        let t0 = Instant::now();
        apply(&mut b.sys, &mut dist, w);
        let ns = nanos(t0);
        pass.writes.push((w, ns));
        pass.wall_ns += ns;
        pass.ops += 1;
    }
}

/// The single-client pass: one `QueryEngine` per epoch, each read timed
/// around `ServingQuery::run` — the dispatch every executor worker uses.
/// Runs at least `spec.min_epochs` epochs and `MIN_SAMPLES` reads, then
/// until `budget` is spent.
fn single_pass<K: OracleKind>(
    b: &mut Built,
    inputs: &Inputs,
    spec: &Spec,
    mut policy: WritePolicy,
    budget: Duration,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    loop {
        let e = pass.epochs;
        let mark = (pass.ops, pass.wall_ns);
        {
            let mut engine = b.sys.engine(K::make(&b.oracles));
            for q in inputs.epoch_reads(spec, e) {
                let t0 = Instant::now();
                let r = q.run(&mut engine);
                let ns = nanos(t0);
                pass.read_ns.push(ns);
                pass.wall_ns += ns;
                pass.family.push(family(q));
                pass.hashes.push(result_hash(&r));
            }
            pass.ops += spec.reads_per_epoch as u64;
            if e < spec.min_epochs {
                pass.stats += engine.stats();
            }
        }
        write_epoch::<K>(b, &mut policy, spec.writes_per_epoch, &mut pass);
        pass.end_epoch(mark);
        let enough = pass.epochs >= spec.min_epochs
            && pass.read_ns.len() >= MIN_SAMPLES
            && (spec.writes_per_epoch == 0 || pass.writes.len() >= MIN_SAMPLES);
        if enough && start.elapsed() >= budget {
            return pass;
        }
    }
}

/// The closed loop: each epoch's reads go through one
/// `BatchExecutor::execute` call with `threads` workers, back to back with
/// the epoch's writes. Stops after `max_epochs` epochs, or once at least
/// `spec.min_epochs` ran and `budget` is spent. With `check`, every
/// `check_every`-th read of the first `min_epochs` epochs is compared with
/// the brute-force reference over the live objects of that moment.
#[allow(clippy::too_many_arguments)] // the repository's lint settings allow this too
fn batch_pass<K: OracleKind>(
    b: &mut Built,
    inputs: &Inputs,
    spec: &Spec,
    mut policy: WritePolicy,
    threads: usize,
    max_epochs: usize,
    budget: Duration,
    mut check: Option<(&mut Reference<'_>, &mut Tally, &mut usize)>,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    while pass.epochs < max_epochs && (pass.epochs < spec.min_epochs || start.elapsed() < budget) {
        let e = pass.epochs;
        let mark = (pass.ops, pass.wall_ns);
        let reads = inputs.epoch_reads(spec, e);
        let t0 = Instant::now();
        let out = BatchExecutor::new(
            &b.sys.graph,
            &b.sys.corpus,
            &b.sys.index,
            &b.sys.alt,
            threads,
        )
        .execute(reads, || K::make(&b.oracles));
        pass.wall_ns += nanos(t0);
        pass.ops += reads.len() as u64;
        if e < spec.min_epochs {
            pass.stats += out.stats;
        }
        for (i, (q, r)) in reads.iter().zip(&out.results).enumerate() {
            pass.hashes.push(result_hash(r));
            let global = e * spec.reads_per_epoch + i;
            if let Some((reference, tally, outstanding)) = check.as_mut() {
                if e < spec.min_epochs && global.is_multiple_of(spec.check_every) {
                    let verdict = reference.check(q, policy.live(), r);
                    tally.check(verdict.is_ok(), || {
                        format!("read {global} {q:?}: {}", verdict.unwrap_err())
                    });
                    if policy.deletions_outstanding(&inputs.corpus) {
                        **outstanding += 1;
                    }
                }
            }
        }
        write_epoch::<K>(b, &mut policy, spec.writes_per_epoch, &mut pass);
        pass.end_epoch(mark);
    }
    pass
}

/// The traced single-client pass over exactly the epochs of the untraced
/// one, with the module decorators in place. Writes run untimed.
/// Also returns the query spans and the distance oracle's own heap pops
/// over the first `min_epochs` epochs.
fn traced_pass<K: OracleKind>(
    b: &mut Built,
    inputs: &Inputs,
    spec: &Spec,
    mut policy: WritePolicy,
    epochs: usize,
) -> (Pass, Vec<QuerySpan>, u64) {
    let mut pass = Pass::default();
    let children = Children::default();
    // Sized before timing starts: one record per read.
    let mut spans: Vec<QuerySpan> = Vec::with_capacity(epochs * spec.reads_per_epoch);
    let mut phase_ns = 0;
    let mut oracle_pops = 0;
    for e in 0..epochs {
        {
            let lb = TracedLowerBound {
                inner: &b.sys.alt,
                children: &children,
            };
            let dist = TracedDistance {
                inner: K::make(&b.oracles),
                children: &children,
            };
            let sys = &b.sys;
            let mut engine = QueryEngine::new(&sys.graph, &sys.corpus, &sys.index, &lb, dist);
            let phase = Instant::now();
            for q in inputs.epoch_reads(spec, e) {
                let t0 = Instant::now();
                let r = q.run(&mut engine);
                let ns = nanos(t0);
                let (lb_calls, lb_ns, dist_calls, dist_ns) = children.take();
                spans.push(QuerySpan {
                    ns,
                    lb_calls,
                    lb_ns,
                    dist_calls,
                    dist_ns,
                    results: result_len(&r) as u64,
                });
                pass.hashes.push(result_hash(&r));
            }
            phase_ns += nanos(phase);
            if e < spec.min_epochs {
                pass.stats += engine.stats();
                oracle_pops += engine.into_distance().heap_counters().pops;
            }
        }
        let mut dist = K::make(&b.oracles);
        for _ in 0..spec.writes_per_epoch {
            let w = policy.next(&b.sys.corpus);
            apply(&mut b.sys, &mut dist, w);
        }
        pass.epochs += 1;
    }
    pass.wall_ns = phase_ns;
    (pass, spans, oracle_pops)
}

/// Runs one workload end to end.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match spec.oracle {
        Oracle::Hl => run_with::<HlKind>(spec, seed, seconds, trace),
        Oracle::Ch => run_with::<ChKind>(spec, seed, seconds, trace),
    }
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn us(ns: &[u64], q: f64) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    quantile(&v, q)
}

fn run_with<K: OracleKind>(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut tally = Tally::default();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let inputs = generate(spec, seed);
    eprintln!(
        "{}: seed {seed}, {} vertices, {} objects, {} reads in the list, {nproc} workers",
        spec.name,
        inputs.graph.num_vertices(),
        inputs.corpus.num_objects(),
        inputs.reads.len()
    );

    // Stage 1: setup, several times; the systems serve the passes below.
    let mut systems: Vec<Built> = Vec::new();
    let mut times: Vec<BuildTimes> = Vec::new();
    for _ in 0..SETUP_REPS {
        let (b, t) = setup(&inputs, spec.oracle);
        systems.push(b);
        times.push(t);
    }
    let med = |f: fn(&BuildTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let setup_s = med(BuildTimes::total);
    let traced_sys = systems.pop().filter(|_| trace);
    let mut batch_sys = systems.pop().expect("SETUP_REPS >= 3");
    let mut single_sys = systems.pop().expect("SETUP_REPS >= 3");
    let index = &single_sys.sys.index;
    let index_bytes = index.size_bytes();
    let mib = |b: usize| (b as f64 / (1 << 20) as f64 * 10.0).round() / 10.0;
    eprintln!(
        "{}: working set MiB: ALT {}, K-SPIN index {}, CH {}, HL {}",
        spec.name,
        mib(single_sys.sys.alt.size_bytes()),
        mib(index_bytes),
        mib(single_sys.oracles.ch.size_bytes()),
        mib(single_sys
            .oracles
            .hl
            .as_ref()
            .map_or(0, |hl| hl.size_bytes()))
    );
    let split = (index.stats().nvd_terms, index.stats().small_terms);
    // Every pass draws the same write stream from this policy.
    let policy = WritePolicy::new(&inputs.corpus, sub_seed(seed, 4));

    // The restart snapshot of the fresh system, with its CH section.
    let extras = SnapshotExtras {
        ch: Some((*single_sys.oracles.ch).clone()),
        ..SnapshotExtras::default()
    };
    let mut save_ms = Vec::new();
    let mut snapshot = Vec::new();
    for _ in 0..SNAPSHOT_REPS {
        let t0 = Instant::now();
        snapshot = single_sys.sys.save_snapshot(&extras);
        save_ms.push(ms(t0));
    }
    let mut validate_ms = Vec::new();
    for _ in 0..SNAPSHOT_REPS {
        let t0 = Instant::now();
        let ok = SnapshotFile::validate(&snapshot).is_ok();
        validate_ms.push(ms(t0));
        tally.check(ok, || "fresh snapshot fails validation".into());
    }

    // Stage 2: the untraced single-client pass, then the closed loop.
    let read_only = spec.writes_per_epoch == 0;
    let rounds = if read_only { 3 } else { 1 };
    let mut restart_ms = Vec::new();
    if read_only {
        time_loads(
            &snapshot,
            RESTART_LOADS / rounds,
            &mut restart_ms,
            &mut tally,
        );
    }
    // The single-client pass gets the larger share of the time: its
    // latency figures drift with the host more than the closed loop's
    // rate does.
    let single_budget = Duration::from_secs_f64(seconds * 0.6);
    let single = single_pass::<K>(
        &mut single_sys,
        &inputs,
        spec,
        policy.clone(),
        single_budget,
    );
    // Every closed-loop answer is checked against the single-client answer
    // to the same read. Read-only epochs repeat with the read list, so once
    // the single-client pass covered the whole list the closed loop may run
    // past it; otherwise it stops where that pass stopped.
    let covered = read_only && single.hashes.len() >= spec.list_len;
    let max_epochs = if covered { usize::MAX } else { single.epochs };
    if read_only {
        time_loads(
            &snapshot,
            RESTART_LOADS / rounds,
            &mut restart_ms,
            &mut tally,
        );
    }
    let batch = batch_pass::<K>(
        &mut batch_sys,
        &inputs,
        spec,
        policy.clone(),
        nproc,
        max_epochs,
        Duration::from_secs_f64(seconds * 0.4),
        None,
    );
    if read_only {
        time_loads(
            &snapshot,
            RESTART_LOADS / rounds,
            &mut restart_ms,
            &mut tally,
        );
    }

    // Stage 3: checks.
    for (i, b) in batch.hashes.iter().enumerate() {
        let s = single.hashes[if i < single.hashes.len() {
            i
        } else {
            i % spec.list_len
        }];
        tally.check(s == *b, || {
            format!("read {i}: BatchExecutor result differs from single-client")
        });
    }
    // A system reloaded from the fresh snapshot replays the fixed prefix
    // with one worker, checked against brute force.
    let (reloaded, reloaded_ch) = load(&snapshot, &mut tally);
    let mut outstanding = 0;
    let one = {
        let oracles = Oracles {
            ch: reloaded_ch.map_or_else(|| single_sys.oracles.ch.clone(), std::sync::Arc::new),
            hl: single_sys.oracles.hl.clone(),
        };
        let mut d = Built {
            sys: reloaded.expect("fresh snapshot loads"),
            oracles,
        };
        let mut reference = Reference::new(&inputs.graph, &inputs.corpus);
        batch_pass::<K>(
            &mut d,
            &inputs,
            spec,
            policy.clone(),
            1,
            spec.min_epochs,
            Duration::ZERO,
            Some((&mut reference, &mut tally, &mut outstanding)),
        )
    };
    for (i, (s, r)) in single.hashes.iter().zip(&one.hashes).enumerate() {
        tally.check(s == r, || {
            format!("read {i}: reloaded 1-worker result differs from single-client")
        });
    }
    if spec.writes_per_epoch > 0 {
        tally.check(outstanding > 0, || {
            "no checked read saw an outstanding deletion".into()
        });
    }
    let fp = Fingerprint::new(&single.stats, split);
    for (who, stats) in [
        (format!("{nproc}-worker"), &batch.stats),
        ("1-worker".into(), &one.stats),
    ] {
        let other = Fingerprint::new(stats, split);
        tally.check(other == fp, || {
            format!("{who} counters {other:?} differ from single-client {fp:?}")
        });
    }
    drop(batch_sys);

    // Update latencies: the live stream's writes, or a write probe after
    // the reads on read-only workloads, checked against brute force.
    let writes = if spec.writes_per_epoch > 0 {
        single.writes.clone()
    } else {
        let mut probe = Pass::default();
        let mut policy = policy.clone();
        write_epoch::<K>(&mut single_sys, &mut policy, spec.probe_writes, &mut probe);
        let mut reference = Reference::new(&inputs.graph, &inputs.corpus);
        let mut engine = single_sys.sys.engine(K::make(&single_sys.oracles));
        for (i, q) in inputs
            .reads
            .iter()
            .enumerate()
            .step_by(spec.check_every * 4)
        {
            let r = q.run(&mut engine);
            let verdict = reference.check(q, policy.live(), &r);
            tally.check(verdict.is_ok(), || {
                format!("after probe, read {i}: {}", verdict.unwrap_err())
            });
        }
        probe.writes
    };
    tally.attempted += writes.len() as u64;

    // Restart: the live workload restarts from the system after its
    // update stream; the read-only ones from the fresh snapshot.
    let restart_snapshot = if read_only {
        snapshot
    } else {
        single_sys.sys.save_snapshot(&extras)
    };
    if !read_only {
        time_loads(
            &restart_snapshot,
            RESTART_LOADS,
            &mut restart_ms,
            &mut tally,
        );
        if let (Some(sys), _) = load(&restart_snapshot, &mut tally) {
            let mut after = single_sys.sys.engine(K::make(&single_sys.oracles));
            let mut restarted = sys.engine(K::make(&single_sys.oracles));
            for (i, q) in inputs.reads.iter().enumerate().step_by(spec.check_every) {
                let (a, b) = (q.run(&mut after), q.run(&mut restarted));
                tally.check(a == b, || {
                    format!("read {i}: restarted system answers differently")
                });
            }
        }
    }

    let reads = single.read_ns.len();
    let write_ns: Vec<u64> = writes.iter().map(|&(_, ns)| ns).collect();
    // Throughput the loop sustains in nine epochs out of ten, and the
    // median read latency of the slowest quarter of epochs: the host's
    // CPU share drifts by a third over tens of seconds, and these
    // quantiles read its common state instead of whichever spell a run
    // happened to land in.
    let single_qps = quantile(&single.epoch_rates, 0.10);
    let qps = quantile(&batch.epoch_rates, 0.10);
    let epoch_p50: Vec<f64> = single
        .read_ns
        .chunks(spec.reads_per_epoch)
        .map(|epoch| us(epoch, 0.50))
        .collect();
    tally.attempted += single.ops + batch.ops;
    eprintln!(
        "{}: single-client {} epochs ({} reads, {} writes), closed loop {} epochs; {} checked reads ({} with deletions outstanding)",
        spec.name,
        single.epochs,
        reads,
        single.writes.len(),
        batch.epochs,
        one.hashes.len().div_ceil(spec.check_every),
        outstanding
    );
    let deciles = |v: &[f64]| [0.1, 0.5, 0.9].map(|q| quantile(v, q).round());
    eprintln!(
        "{}: epoch rates (1/s, p10/p50/p90): single-client {:?}, closed loop {:?}",
        spec.name,
        deciles(&single.epoch_rates),
        deciles(&batch.epoch_rates)
    );

    let metrics = |list: &[(&'static str, f64, &'static str)]| {
        list.iter()
            .map(|&(name, value, unit)| Metric { name, value, unit })
            .collect::<Vec<_>>()
    };
    let end_to_end = metrics(&[
        ("setup_s", setup_s, "s"),
        ("qps", qps, "1/s"),
        ("query_p50_us", quantile(&epoch_p50, 0.75), "us"),
        ("query_p99_us", us(&single.read_ns, 0.99), "us"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]);

    let mut per_layer = Vec::new();
    if let Some(mut traced_sys) = traced_sys {
        let (traced, spans, oracle_pops) =
            traced_pass::<K>(&mut traced_sys, &inputs, spec, policy, single.epochs);
        for (i, (s, t)) in single.hashes.iter().zip(&traced.hashes).enumerate() {
            tally.check(s == t, || {
                format!("read {i}: traced result differs from untraced")
            });
        }
        let traced_fp = Fingerprint::new(&traced.stats, split);
        tally.check(traced_fp == fp, || {
            format!("traced counters {traced_fp:?} differ from {fp:?}")
        });
        let t = LayerTotals::of(&spans);
        let coverage = t.query_ns as f64 / traced.wall_ns as f64;
        tally.check(
            (COVERAGE_TOLERANCE.0..=COVERAGE_TOLERANCE.1).contains(&coverage),
            || format!("trace coverage {coverage:.3} outside {COVERAGE_TOLERANCE:?}"),
        );
        let untraced_read_ns: u64 = single.read_ns.iter().sum();
        let fam_p50 = |f: u8| {
            let ns = single.read_ns.iter().zip(&single.family);
            us(
                &ns.filter(|&(_, &g)| g == f)
                    .map(|(&ns, _)| ns)
                    .collect::<Vec<_>>(),
                0.5,
            )
        };
        let kind_p50 = |pick: fn(&Write) -> bool| {
            us(
                &writes
                    .iter()
                    .filter(|(w, _)| pick(w))
                    .map(|&(_, ns)| ns)
                    .collect::<Vec<_>>(),
                0.5,
            )
        };
        // Per-query means over the traced pass, and over the fixed prefix
        // for the engine's QueryStats counters.
        let q = t.queries as f64;
        let per_q = |x: u64| x as f64 / q;
        let per_prefix_q = |x: usize| x as f64 / (spec.min_epochs * spec.reads_per_epoch) as f64;
        let per = |x: u64, calls: u64| x as f64 / calls.max(1) as f64;
        let s = &traced.stats;
        let engine_pops = (s.heap_pops as u64).saturating_sub(oracle_pops);
        per_layer = metrics(&[
            ("dist.calls_per_q", per_q(t.dist_calls), "count"),
            ("dist.self_us_per_q", per_q(t.dist_ns) / 1e3, "us"),
            ("dist.ns_per_call", per(t.dist_ns, t.dist_calls), "ns"),
            (
                "dist.heap_pops_per_call",
                per(oracle_pops, s.dist_computations as u64),
                "count",
            ),
            ("dist.useful_ratio", per(t.results, t.dist_calls), "ratio"),
            ("alt.calls_per_q", per_q(t.lb_calls), "count"),
            ("alt.self_us_per_q", per_q(t.lb_ns) / 1e3, "us"),
            ("alt.ns_per_call", per(t.lb_ns, t.lb_calls), "ns"),
            ("engine.self_us_per_q", per_q(t.engine_ns()) / 1e3, "us"),
            (
                "engine.kappa_per_q",
                per_prefix_q(s.heap_extractions),
                "count",
            ),
            (
                "engine.pruned_per_q",
                per_prefix_q(s.pruned_candidates),
                "count",
            ),
            (
                "engine.heap_pops_per_q",
                per_prefix_q(engine_pops as usize),
                "count",
            ),
            ("engine.bknn_or_p50_us", fam_p50(0), "us"),
            ("engine.bknn_and_p50_us", fam_p50(1), "us"),
            ("engine.topk_p50_us", fam_p50(2), "us"),
            ("serving.speedup", qps / single_qps, "ratio"),
            ("update_p50_us", us(&write_ns, 0.50), "us"),
            ("update_p99_us", us(&write_ns, 0.99), "us"),
            (
                "index.delete_us_p50",
                kind_p50(|w| matches!(w, Write::Delete(_))),
                "us",
            ),
            (
                "index.insert_us_p50",
                kind_p50(|w| matches!(w, Write::Insert(_))),
                "us",
            ),
            (
                "index.rebuild_ms_p50",
                kind_p50(|w| matches!(w, Write::Rebuild(_))) / 1e3,
                "ms",
            ),
            ("index.bytes", index_bytes as f64, "B"),
            ("index.nvd_terms", split.0 as f64, "count"),
            ("index.small_terms", split.1 as f64, "count"),
            ("build.alt_s", med(|t| t.alt_s), "s"),
            ("build.kspin_s", med(|t| t.kspin_s), "s"),
            ("build.ch_s", med(|t| t.ch_s), "s"),
            ("build.hl_s", med(|t| t.hl_s), "s"),
            ("restart_ms", median(&restart_ms), "ms"),
            ("snapshot.bytes", restart_snapshot.len() as f64, "B"),
            ("snapshot.save_ms", median(&save_ms), "ms"),
            ("snapshot.validate_ms", median(&validate_ms), "ms"),
            ("trace.overhead", per(t.query_ns, untraced_read_ns), "ratio"),
            ("trace.coverage", coverage, "ratio"),
            ("query_samples", reads as f64, "count"),
            ("update_samples", writes.len() as f64, "count"),
            (
                "count.dist_computations",
                fp.dist_computations as f64,
                "count",
            ),
            ("count.lb_computations", fp.lb_computations as f64, "count"),
            (
                "count.heap_extractions",
                fp.heap_extractions as f64,
                "count",
            ),
            (
                "count.pruned_candidates",
                fp.pruned_candidates as f64,
                "count",
            ),
            ("count.heap_pushes", fp.heap_pushes as f64, "count"),
            ("count.heap_pops", fp.heap_pops as f64, "count"),
        ]);
        let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
        per_layer.extend(metrics(&[("error_rate", error_rate, "ratio")]));
    }
    Outcome {
        end_to_end,
        per_layer,
        attempted: tally.attempted,
        failed: tally.failed,
        fingerprint: fp,
    }
}

/// Times `n` loads of a snapshot, counting each failure to load.
fn time_loads(bytes: &[u8], n: usize, into: &mut Vec<f64>, tally: &mut Tally) {
    for _ in 0..n {
        let t0 = Instant::now();
        let loaded = KspinSystem::load_snapshot(bytes);
        into.push(ms(t0));
        let err = loaded.err();
        tally.check(err.is_none(), || {
            format!(
                "restart snapshot fails to load: {}",
                err.map_or_else(String::new, |e| e.to_string())
            )
        });
    }
}

/// Loads a snapshot, counting a failure to load.
fn load(
    bytes: &[u8],
    tally: &mut Tally,
) -> (Option<KspinSystem>, Option<kspin::ch::ContractionHierarchy>) {
    match KspinSystem::load_snapshot(bytes) {
        Ok((sys, extras)) => {
            tally.check(true, String::new);
            (Some(sys), extras.ch)
        }
        Err(e) => {
            tally.check(false, || format!("snapshot fails to load: {e}"));
            (None, None)
        }
    }
}
