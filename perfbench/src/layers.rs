//! Per-layer measurement for the traced run. Layers inside the server
//! process cannot be spanned from outside, so the benchmark replays each
//! generated request's inputs through the same public functions the
//! server calls, under the same request id, with a span around every
//! call. Compiler layers are replayed on the run's distinct
//! (workload, device) pairs, smallest first, within a time budget.

use crate::client::{Conn, Server, TempDir};
use crate::jobs::Spec;
use crate::spans::Recorder;
use crate::{stats, Ctx, Report};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tetris_baselines::{generic, paulihedral, pcoast_like, qaoa_2qan};
use tetris_circuit::cancel_gates;
use tetris_core::TetrisConfig;
use tetris_engine::{
    decode_output, encode_output, Backend, CompileBackend, CompileJob, DiskCache, Engine,
    EngineConfig, RegionScheduler, SchedulerConfig,
};
use tetris_pauli::ir::TetrisIr;
use tetris_pauli::Hamiltonian;
use tetris_router::{route, RouterConfig};
use tetris_server::{json, registry};
use tetris_topology::{CouplingGraph, Layout};

/// Requests replayed through the server-side layers.
const MAX_REPLAYED_REQUESTS: usize = 300;
/// Wall budget for the compiler-layer replay.
const COMPILER_BUDGET: Duration = Duration::from_secs(3);

/// One generated request: its id, job specs and `POST /batch` body.
pub struct Replayed {
    pub id: u64,
    pub specs: Vec<Spec>,
    pub body: String,
}

/// What the traced run replays.
#[derive(Default)]
pub struct Inputs {
    pub requests: Vec<Replayed>,
    /// Distinct (label, workload, device) pairs for the compiler layers.
    pub pairs: Vec<(String, Arc<Hamiltonian>, Arc<CouplingGraph>)>,
    /// Batches replayed through `CouplingGraph::carve` and
    /// `RegionScheduler::schedule_batch`.
    pub resident: Vec<Vec<CompileJob>>,
}

/// Counts and differences the replay measures beside its spans.
#[derive(Default)]
pub struct Counts {
    pub swaps: u64,
    pub cancel_removed: u64,
    pub overhead_ms: Vec<f64>,
    pub carve_skip_ratio: f64,
}

fn is_two_local(h: &Hamiltonian) -> bool {
    h.terms().all(|t| t.string.weight() <= 2)
}

/// Replays `inputs` through every layer, recording spans into `rec`.
pub fn replay(inputs: &Inputs, ctx: &Ctx, rec: &mut Recorder) -> Result<Counts, String> {
    let mut counts = Counts::default();
    for req in inputs.requests.iter().take(MAX_REPLAYED_REQUESTS) {
        rec.span("replay.request", req.id, |rec| -> Result<(), String> {
            rec.span("server.json_parse", req.id, |_| json::parse(&req.body))?;
            for spec in &req.specs {
                let graph = rec
                    .span("server.device_build", req.id, |_| {
                        registry::device(&spec.device)
                    })
                    .ok_or("replay: device")?;
                let ham = rec
                    .span("server.workload_build", req.id, |_| {
                        registry::workload(&spec.workload)
                    })
                    .ok_or("replay: workload")?;
                rec.span("pauli.fingerprint", req.id, |_| ham.fingerprint());
                rec.span("topology.fingerprint", req.id, |_| graph.fingerprint());
                let backend = registry::backend(&spec.backend).ok_or("replay: backend")?;
                let job = CompileJob::new(
                    spec.workload.clone(),
                    backend,
                    Arc::new(ham),
                    Arc::new(graph),
                );
                rec.span("engine.cache_key", req.id, |_| job.cache_key());
            }
            Ok(())
        })?;
    }

    let mut pairs: Vec<&(String, Arc<Hamiltonian>, Arc<CouplingGraph>)> =
        inputs.pairs.iter().collect();
    pairs.sort_by_key(|(name, h, g)| (h.pauli_string_count(), g.n_qubits(), name.clone()));
    let dir = TempDir::new(&ctx.scratch, "layers-disk")?;
    let disk = DiskCache::open(&dir.0).map_err(|e| format!("disk cache: {e}"))?;
    let lone = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 0,
        ..Default::default()
    });
    let cached = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 64,
        ..Default::default()
    });
    let started = Instant::now();
    let tetris = Backend::Tetris(TetrisConfig::default());
    let id_base = 1 << 40;
    for (k, (name, h, g)) in pairs.iter().enumerate() {
        if k >= 2 && started.elapsed() > COMPILER_BUDGET {
            break;
        }
        let id = id_base + k as u64;
        rec.span("pauli.ir", id, |_| TetrisIr::from_hamiltonian(h));
        let out = rec.span("core.tetris", id, |_| tetris.compile(h, g));
        rec.span("baselines.paulihedral", id, |_| {
            paulihedral::compile(h, g, true)
        });
        rec.span("baselines.pcoast", id, |_| pcoast_like::compile(h, g));
        rec.span("baselines.tket", id, |_| {
            generic::compile(h, g, generic::OptLevel::Native)
        });
        if is_two_local(h) {
            rec.span("baselines.qaoa_2qan", id, |_| qaoa_2qan::compile(h, g, 3));
        }
        let (logical, _) = generic::logical_circuit(h);
        let mut routed = rec.span("router.sabre", id, |_| {
            route(
                &logical,
                g,
                Layout::trivial(logical.n_qubits(), g.n_qubits()),
                &RouterConfig::default(),
            )
        });
        counts.swaps += routed.swap_count as u64;
        let removed = rec.span("circuit.cancel", id, |_| cancel_gates(&mut routed.circuit));
        counts.cancel_removed += removed.removed_total() as u64;

        let bytes = rec.span("engine.encode", id, |_| encode_output(&out));
        rec.span("engine.decode", id, |_| decode_output(&bytes))
            .map_err(|e| format!("decode: {e:?}"))?;
        let key = id ^ h.fingerprint();
        rec.span("engine.disk_store", id, |_| disk.store(key, &out));
        rec.span("engine.disk_load", id, |_| disk.load(key))
            .ok_or("disk load missed")?;

        let job = CompileJob::new(name.clone(), tetris, h.clone(), g.clone());
        if k < 6 {
            let t = Instant::now();
            lone.compile_batch(vec![job.clone()]);
            let through_engine = t.elapsed().as_secs_f64();
            let t = Instant::now();
            job.run();
            counts
                .overhead_ms
                .push((through_engine - t.elapsed().as_secs_f64()) * 1e3);
        }
        if k < 4 {
            cached.compile_batch(vec![job.clone()]);
            for _ in 0..20 {
                rec.span("engine.hit", id, |_| {
                    cached.compile_batch(vec![job.clone()])
                });
            }
        }
    }

    let scheduler = RegionScheduler::new(SchedulerConfig::default());
    let sched_engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 256,
        ..Default::default()
    });
    for (k, batch) in inputs.resident.iter().enumerate() {
        let id = (2 << 40) + k as u64;
        let sizes: Vec<usize> = batch.iter().map(|j| j.hamiltonian.n_qubits).collect();
        rec.span("topology.carve", id, |_| batch[0].graph.carve(&sizes));
        rec.span("engine.schedule", id, |_| {
            scheduler.schedule_batch(&sched_engine, batch.clone())
        });
    }
    counts.carve_skip_ratio = scheduler.stats().carve_skip_ratio();
    Ok(counts)
}

/// For workloads without HTTP: measures the client-side server spans on a
/// short loopback probe that sends `specs` (cold, then warm) to a fresh
/// `tetris serve --threads 1`, with `/healthz` probes between requests.
pub fn probe_server(ctx: &Ctx, specs: &[Spec], rec: &mut Recorder) -> Result<f64, String> {
    let server = Server::start(&ctx.server_bin, &["--threads".into(), "1".into()])?;
    let mut conn = Conn::open(server.port).map_err(|e| e.to_string())?;
    let (mut sent, mut shed) = (0u64, 0u64);
    for round in 0..3 {
        for (k, spec) in specs.iter().enumerate() {
            let id = (3 << 40) + (round * specs.len() + k) as u64;
            let body = format!("{{\"jobs\": [{}]}}", spec.json());
            sent += 1;
            match crate::serve::exchange(&mut conn, &body, id, Some(rec))? {
                Some(_) => {}
                None => shed += 1,
            }
            rec.span("server.healthz", id, |_| conn.get("/healthz"))?;
        }
    }
    Ok(shed as f64 / sent as f64)
}

/// The figures a traced run reports beside its spans.
pub struct Facts {
    pub mem_hit_ratio: f64,
    pub disk_hit_ratio: f64,
    /// `None`: take the replay scheduler's ratio.
    pub carve_skip_ratio: Option<f64>,
    pub shed_frac: f64,
    pub calib_ms: f64,
    pub gen_late_p90_ms: f64,
    /// The untraced half's p50 and throughput in host time.
    pub raw_req_p50_ms: f64,
    pub raw_jobs_per_s: f64,
    pub overhead_frac: f64,
}

/// Writes every per-layer metric, in the order `BENCHMARK.json` lists.
pub fn report(r: &mut Report, rec: &Recorder, counts: &Counts, facts: &Facts) {
    let self_ms = rec.self_times_ms();
    let med = |name: &str| self_ms.get(name).map_or(f64::NAN, |v| stats::median(v));
    for span in [
        "server.post",
        "server.wait",
        "server.healthz",
        "server.json_parse",
        "server.workload_build",
        "server.device_build",
    ] {
        r.metric(&format!("{span}_ms"), med(span), "ms");
    }
    r.metric("server.shed_frac", facts.shed_frac, "ratio");
    r.metric("pauli.fingerprint_ms", med("pauli.fingerprint"), "ms");
    r.metric("pauli.ir_ms", med("pauli.ir"), "ms");
    r.metric("topology.fingerprint_ms", med("topology.fingerprint"), "ms");
    r.metric("topology.carve_ms", med("topology.carve"), "ms");
    r.metric("core.tetris_ms", med("core.tetris"), "ms");
    for span in [
        "baselines.paulihedral",
        "baselines.pcoast",
        "baselines.tket",
        "baselines.qaoa_2qan",
    ] {
        r.metric(&format!("{span}_ms"), med(span), "ms");
    }
    r.metric("router.sabre_ms", med("router.sabre"), "ms");
    r.metric("router.swaps", counts.swaps as f64, "count");
    r.metric("circuit.cancel_ms", med("circuit.cancel"), "ms");
    r.metric(
        "circuit.cancel_removed",
        counts.cancel_removed as f64,
        "count",
    );
    r.metric("engine.cache_key_ms", med("engine.cache_key"), "ms");
    r.metric(
        "engine.overhead_ms",
        stats::median(&counts.overhead_ms),
        "ms",
    );
    for span in [
        "engine.hit",
        "engine.encode",
        "engine.decode",
        "engine.disk_load",
        "engine.disk_store",
    ] {
        r.metric(&format!("{span}_ms"), med(span), "ms");
    }
    r.metric("engine.mem_hit_ratio", facts.mem_hit_ratio, "ratio");
    r.metric("engine.disk_hit_ratio", facts.disk_hit_ratio, "ratio");
    r.metric("engine.schedule_ms", med("engine.schedule"), "ms");
    r.metric(
        "engine.carve_skip_ratio",
        facts.carve_skip_ratio.unwrap_or(counts.carve_skip_ratio),
        "ratio",
    );
    r.metric("host.calib_ms", facts.calib_ms, "ms");
    r.metric("load.gen_late_p90_ms", facts.gen_late_p90_ms, "ms");
    r.metric("load.raw_req_p50_ms", facts.raw_req_p50_ms, "ms");
    r.metric("load.raw_jobs_per_s", facts.raw_jobs_per_s, "1/s");
    r.metric("trace.overhead_frac", facts.overhead_frac, "ratio");
}
