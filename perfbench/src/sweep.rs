//! `sweep-cold`: the paper's evaluation sweep on the in-process engine.
//! Every job compiles (`cache_capacity: 0`); two load threads cycle
//! through the jobs, one job per `compile_batch` call, and the timed
//! window covers whole passes, so every run times the same mix.

use crate::calib::Calibration;
use crate::jobs::{self, Outcome, Quality, Spec};
use crate::layers::{self, Facts, Inputs, Replayed};
use crate::spans::Recorder;
use crate::{stats, Ctx, EndToEnd, Report, Rng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tetris_bench::workloads::qaoa_set;
use tetris_core::TetrisConfig;
use tetris_engine::{Backend, CompileJob, Engine, EngineConfig};
use tetris_server::registry;
use tetris_topology::CouplingGraph;

/// Engine workers, and load threads feeding them.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Latency limit for `slo_frac`, reference-host milliseconds.
pub const SLO_MS: f64 = 2000.0;

struct SweepJob {
    job: CompileJob,
    /// `None` for the seeded QAOA instances, which are checked against an
    /// in-process compile instead of the expected table.
    spec: Option<Spec>,
}

struct Setup {
    engine: Engine,
    jobs: Vec<SweepJob>,
}

/// Engine start, input build, distance rows — everything before the
/// first timed job.
fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let engine = Engine::new(EngineConfig {
        threads: WORKERS,
        cache_capacity: 0,
        ..Default::default()
    });
    let graph = Arc::new(CouplingGraph::heavy_hex_65());
    for u in 0..graph.n_qubits() {
        graph.dist_row(u);
    }
    let mut jobs = Vec::new();
    let mut built: HashMap<String, Arc<tetris_pauli::Hamiltonian>> = HashMap::new();
    for spec in jobs::sweep_named() {
        let ham = match built.get(&spec.workload) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(registry::workload(&spec.workload).ok_or("sweep workload")?);
                built.insert(spec.workload.clone(), h.clone());
                h
            }
        };
        let backend = registry::backend(&spec.backend).ok_or("sweep backend")?;
        let job = CompileJob::new(spec.workload.clone(), backend, ham, graph.clone());
        jobs.push(SweepJob {
            job,
            spec: Some(spec),
        });
    }
    for ham in qaoa_set(ctx.seed) {
        let ham = Arc::new(ham);
        for backend in [
            Backend::Tetris(TetrisConfig::default()),
            Backend::Qaoa2qan { seed: ctx.seed },
        ] {
            let job = CompileJob::new(ham.name.clone(), backend, ham.clone(), graph.clone());
            jobs.push(SweepJob { job, spec: None });
        }
    }
    // Seeded order, then largest workloads first, so a pass ends on short
    // jobs and both workers stay busy until its last few milliseconds. The
    // large molecules (CH4 and up) run in one fixed order, so the pairs of
    // big compiles that overlap, and with them the peak RSS, do not depend
    // on the seed.
    Rng::new(ctx.seed, 1).shuffle(&mut jobs);
    jobs.sort_by_key(|j| {
        let terms = j.job.hamiltonian.pauli_string_count();
        let backend = j.spec.as_ref().map_or(0, |s| {
            jobs::SWEEP_BACKENDS
                .iter()
                .position(|b| *b == s.backend)
                .unwrap_or(0)
        });
        if terms >= 4096 {
            (std::cmp::Reverse(terms), backend)
        } else {
            (std::cmp::Reverse(1 << terms.ilog2()), 0)
        }
    });
    Ok(Setup { engine, jobs })
}

/// One timed job.
struct Done {
    index: usize,
    latency_ms: f64,
    /// Turnaround from this thread's previous completion to this send.
    late_ms: f64,
    /// The output's deterministic part (the circuit itself is dropped
    /// at once, so memory does not grow with the window), or the error.
    outcome: Result<Outcome, String>,
}

/// Windows of whole passes.
struct Window {
    done: Vec<Done>,
    passes: usize,
    busy_s: f64,
    max_busy: usize,
    /// Peak RSS of each pass, MiB.
    pass_peak_rss_mb: Vec<f64>,
}

fn run_window(
    s: &Setup,
    seconds: f64,
    cal: &mut Calibration,
    mut rec: Option<&mut Recorder>,
) -> Window {
    let mut w = Window {
        done: Vec::new(),
        passes: 0,
        busy_s: 0.0,
        max_busy: 0,
        pass_peak_rss_mb: Vec::new(),
    };
    let busy = AtomicUsize::new(0);
    let max_busy = AtomicUsize::new(0);
    let parent = rec.as_deref().map(Recorder::fork);
    let spans: Mutex<Vec<Recorder>> = Mutex::new(Vec::new());
    while w.busy_s < seconds {
        let next = AtomicUsize::new(0);
        reset_peak_rss();
        let pass_start = Instant::now();
        let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    let mut thread_rec = parent.as_ref().map(Recorder::fork);
                    let mut last = Instant::now();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= s.jobs.len() {
                            break;
                        }
                        let job = s.jobs[index].job.clone();
                        let now_busy = busy.fetch_add(1, Ordering::SeqCst) + 1;
                        max_busy.fetch_max(now_busy, Ordering::SeqCst);
                        let t = Instant::now();
                        let late_ms = (t - last).as_secs_f64() * 1e3;
                        let results = match thread_rec.as_mut() {
                            Some(r) => r.span("engine.compile_batch", index as u64, |_| {
                                s.engine.compile_batch(vec![job])
                            }),
                            None => s.engine.compile_batch(vec![job]),
                        };
                        last = Instant::now();
                        busy.fetch_sub(1, Ordering::SeqCst);
                        let outcome = match &results[0].error {
                            Some(e) => Err(e.clone()),
                            None => Ok(Outcome::of(&results[0].output)),
                        };
                        mine.push(Done {
                            index,
                            latency_ms: (last - t).as_secs_f64() * 1e3,
                            late_ms,
                            outcome,
                        });
                    }
                    done.lock().expect("a load thread panicked").extend(mine);
                    if let Some(r) = thread_rec {
                        spans.lock().expect("a load thread panicked").push(r);
                    }
                });
            }
        });
        w.busy_s += pass_start.elapsed().as_secs_f64();
        w.pass_peak_rss_mb.push(crate::own_peak_rss_mb());
        w.passes += 1;
        w.done
            .extend(done.into_inner().expect("a load thread panicked"));
        cal.window();
    }
    if let Some(rec) = rec.as_mut() {
        for r in spans.into_inner().expect("a load thread panicked") {
            rec.absorb(r);
        }
    }
    w.max_busy = max_busy.load(Ordering::SeqCst);
    w
}

/// Resets this process's `VmHWM` to its current RSS, so each pass reports
/// its own peak. Which big compiles overlap on the two workers varies from
/// pass to pass, so the run reports the median pass peak.
fn reset_peak_rss() {
    // Linux: writing 5 to clear_refs resets the peak RSS. Where it is not
    // available, passes report the process-wide peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Guards against a window that cannot be compared across runs.
fn guard(w: &Window, s: &Setup, ctx: &Ctx) -> Result<(), String> {
    if w.passes < 2 || w.done.len() != w.passes * s.jobs.len() {
        return Err(format!(
            "sweep window covers {} jobs, not {} whole passes of {}",
            w.done.len(),
            w.passes,
            s.jobs.len()
        ));
    }
    if w.max_busy > ctx.nproc || WORKERS > ctx.nproc {
        return Err(format!(
            "{} threads busy at once on {} cores",
            w.max_busy.max(WORKERS),
            ctx.nproc
        ));
    }
    Ok(())
}

/// Checks every timed output; returns (correct jobs, quality over the
/// fixed named set).
fn check(ctx: &Ctx, s: &Setup, w: &Window, report: &mut Report) -> Result<(u64, Quality), String> {
    let mut seeded: HashMap<usize, Outcome> = HashMap::new();
    let mut first: HashMap<usize, (Spec, Outcome)> = HashMap::new();
    let mut ok = 0;
    for d in &w.done {
        let entry = &s.jobs[d.index];
        let got = match &d.outcome {
            Ok(o) => *o,
            Err(e) => {
                report.problems.push(format!("{}: {e}", entry.job.name));
                continue;
            }
        };
        let verdict = match &entry.spec {
            Some(spec) => {
                first.entry(d.index).or_insert_with(|| (spec.clone(), got));
                ctx.expected.check(spec, got)
            }
            None => {
                let want = *seeded
                    .entry(d.index)
                    .or_insert_with(|| Outcome::of(&entry.job.run()));
                if want == got {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: got {got:?}, in-process {want:?}",
                        entry.job.name
                    ))
                }
            }
        };
        match verdict {
            Ok(()) => ok += 1,
            Err(e) => report.problems.push(e),
        }
    }
    let named: Vec<(Spec, Outcome)> = first.into_values().collect();
    if named.len() != jobs::sweep_named().len() {
        return Err("sweep window missed named jobs".into());
    }
    Ok((ok, Quality::of(&named)))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (mut cal, mut setup_cal) = (Calibration::default(), Calibration::default());
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..if ctx.trace { 1 } else { SETUPS } {
        drop(s.take());
        let t = Instant::now();
        s = Some(setup(ctx)?);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_cal.window();
    }
    let s = s.expect("set up");
    // Calibrate the timed window only: one quiet window here, the rest
    // inside the window.
    cal.window();

    if !ctx.trace {
        let w = run_window(&s, ctx.seconds, &mut cal, None);
        guard(&w, &s, ctx)?;
        let (ok, quality) = check(ctx, &s, &w, &mut report)?;
        report.attempted = w.done.len() as u64;
        report.failed = w.done.iter().filter(|d| d.outcome.is_err()).count() as u64;
        EndToEnd {
            setup_s,
            busy_window_s: w.busy_s,
            jobs_ok: ok,
            jobs_attempted: w.done.len() as u64,
            latencies_ms: w.done.iter().map(|d| d.latency_ms).collect(),
            requests: w.done.len() as u64,
            slo_ms: SLO_MS,
            open_loop: false,
            quality,
            peak_rss_mb: stats::median(&w.pass_peak_rss_mb),
        }
        .report(&mut report, &cal, &setup_cal)?;
        return Ok(report);
    }

    // Traced run: half the window untraced, half traced, then the replay.
    let plain = run_window(&s, ctx.seconds / 2.0, &mut cal, None);
    let mut rec = Recorder::new(Instant::now());
    let traced = run_window(&s, ctx.seconds / 2.0, &mut cal, Some(&mut rec));
    guard(&plain, &s, ctx)?;
    guard(&traced, &s, ctx)?;
    let (ok, _) = check(ctx, &s, &plain, &mut report)?;
    check(ctx, &s, &traced, &mut report)?;
    report.attempted = (plain.done.len() + traced.done.len()) as u64;
    report.failed = plain
        .done
        .iter()
        .chain(&traced.done)
        .filter(|d| d.outcome.is_err())
        .count() as u64;

    let mut inputs = Inputs::default();
    let mut seen = std::collections::HashSet::new();
    for (k, j) in s.jobs.iter().enumerate() {
        if let Some(spec) = &j.spec {
            inputs.requests.push(Replayed {
                id: k as u64,
                specs: vec![spec.clone()],
                body: format!("{{\"jobs\": [{}]}}", spec.json()),
            });
        }
        if seen.insert(j.job.hamiltonian.name.clone()) {
            inputs.pairs.push((
                j.job.name.clone(),
                j.job.hamiltonian.clone(),
                j.job.graph.clone(),
            ));
        }
    }
    inputs.resident = qaoa_resident_batches(&s.jobs);
    let counts = layers::replay(&inputs, ctx, &mut rec)?;
    let probe: Vec<Spec> = jobs::sweep_named()
        .into_iter()
        .filter(|p| p.workload == "UCC-10")
        .collect();
    let shed_frac = layers::probe_server(ctx, &probe, &mut rec)?;
    ctx.write_spans(&rec)?;

    let mean = |w: &Window| w.busy_s / w.done.len() as f64;
    let stats = s.engine.cache_stats();
    let lat: Vec<f64> = plain.done.iter().map(|d| d.latency_ms).collect();
    let late: Vec<f64> = plain.done.iter().map(|d| d.late_ms).collect();
    let facts = Facts {
        mem_hit_ratio: stats.hit_ratio(),
        disk_hit_ratio: stats.disk_hit_ratio(),
        carve_skip_ratio: None,
        shed_frac,
        calib_ms: cal.median_ms(),
        gen_late_p90_ms: stats::percentile(&late, 0.9, "load.gen_late_p90_ms")?,
        raw_req_p50_ms: stats::percentile(&lat, 0.5, "load.raw_req_p50_ms")?,
        raw_jobs_per_s: ok as f64 / plain.busy_s,
        overhead_frac: mean(&traced) / mean(&plain) - 1.0,
    };
    layers::report(&mut report, &rec, &counts, &facts);
    Ok(report)
}

/// The sweep's QAOA jobs (Tetris backend) in groups of four on
/// `grid-12x12`, for the carve and region-scheduler layers.
fn qaoa_resident_batches(jobs: &[SweepJob]) -> Vec<Vec<CompileJob>> {
    let grid = Arc::new(CouplingGraph::grid(12, 12));
    let qaoa: Vec<CompileJob> = jobs
        .iter()
        .filter(|j| j.spec.is_none() && matches!(j.job.backend, Backend::Tetris(_)))
        .map(|j| {
            CompileJob::new(
                j.job.name.clone(),
                j.job.backend,
                j.job.hamiltonian.clone(),
                grid.clone(),
            )
        })
        .collect();
    let batches: Vec<Vec<CompileJob>> = qaoa.chunks(4).map(|c| c.to_vec()).collect();
    // Twice: the second round reuses resident regions.
    batches.iter().chain(&batches).cloned().collect()
}
