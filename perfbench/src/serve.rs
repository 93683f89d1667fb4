//! `serve-warm` and `serve-mixed`: traffic against a child
//! `tetris serve --threads 1` (a reactor plus one worker) over loopback
//! keep-alive sockets, from this process, on at most two connections.
//!
//! * `serve-warm` is a closed loop: each connection sends its next request
//!   when the previous one completes. Requests are drawn from a fixed hot
//!   set that compiles during set-up, so every timed job is a memory-tier
//!   hit.
//! * `serve-mixed` is an open loop on a seeded fixed-rate schedule; each
//!   request is timed from its due time. It mixes disk-tier hits, cold
//!   misses that never repeat, and resident-region batches.

use crate::calib::Calibration;
use crate::client::{self, Conn, Server, TempDir};
use crate::jobs::{self, Outcome, Quality, Spec};
use crate::layers::{self, Facts, Inputs, Replayed};
use crate::spans::Recorder;
use crate::{stats, Ctx, EndToEnd, Report, Rng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use tetris_engine::CompileBackend;
use tetris_server::json::Value;
use tetris_topology::Region;

/// Client connections carrying the load.
const CONNECTIONS: usize = 2;
/// Threads the server keeps busy: the reactor and one engine worker.
const SERVER_THREADS: usize = 2;

/// `serve-warm` request classes per cycle of 100 requests: (class share,
/// workloads). The shares put p50 inside the CH4 class and p90 inside the
/// MgH2 class, away from class boundaries.
const WARM_MIX: [(usize, &[&str]); 4] = [
    (
        40,
        &[
            "REG3-16-s3",
            "RAND-16-25-s5",
            "UCC-10",
            "UCC-16",
            "LiH-JW",
            "LiH-BK",
            "BeH2-JW",
            "BeH2-BK",
        ],
    ),
    (22, &["CH4-JW", "CH4-BK"]),
    (35, &["MgH2-JW", "MgH2-BK"]),
    (3, &["LiCl-JW", "LiCl-BK", "CO2-JW", "CO2-BK"]),
];
/// Quiet-window period of the closed loop.
const WARM_QUIET_EVERY: Duration = Duration::from_millis(500);
/// `serve-warm` latency limit for `slo_frac`, reference-host ms.
const WARM_SLO_MS: f64 = 250.0;

/// `serve-mixed` arrivals per 1 s epoch. The server's CPU time is about
/// a fifth of the window at this rate, so requests seldom wait for one
/// another: queueing would turn a few percent of host slowdown into a
/// much larger swing of p50 and p90 from run to run.
pub const MIXED_RATE: usize = 50;
/// Each 1 s epoch takes arrivals in its first 0.9 s; the rest is the
/// quiet window.
const MIXED_ACTIVE: f64 = 0.9;
/// Kernel windows in each `serve-mixed` quiet gap. The gap is idle time
/// of the schedule, so more kernel samples cost the window nothing, and
/// they pin the run's kernel median more tightly.
const MIXED_QUIET_KERNELS: usize = 4;
/// `serve-mixed` class shares per 100 requests: hot-set hits, resident
/// batches, cold misses. Resident batches are the fastest requests and
/// misses the slowest, so p50 falls inside the hits and p90 inside the
/// misses. Misses are small compiles, so service times stay short and
/// queueing does not swing the percentiles from seed to seed.
const MIXED_MIX: [usize; 3] = [65, 15, 20];
/// Memory-tier capacity of the `serve-mixed` server (hot set: 24).
const MIXED_MEMORY_CAPACITY: usize = 8;
/// `serve-mixed` latency limit for `slo_frac`, reference-host ms.
pub const MIXED_SLO_MS: f64 = 150.0;
/// Resident batches: jobs per batch, and distinct QAOA shapes per run.
const RESIDENT_BATCH: usize = 4;
const RESIDENT_POOL: usize = 8;
const RESIDENT_DEVICE: &str = "grid-12x12";

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Mixed,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Resident,
    Miss,
}

struct Request {
    specs: Vec<Spec>,
    class: Class,
    /// Seconds after the window start (open loop only).
    due_s: f64,
}

impl Request {
    fn body(&self) -> String {
        let jobs: Vec<String> = self.specs.iter().map(Spec::json).collect();
        let resident = if self.class == Class::Resident {
            ", \"resident\": true"
        } else {
            ""
        };
        format!("{{\"jobs\": [{}]{resident}}}", jobs.join(", "))
    }
}

/// `POST /batch`, then `GET /job/<id>?wait=1` for every id. Returns the
/// job records, or `None` when the batch was shed with 503.
pub fn exchange(
    conn: &mut Conn,
    body: &str,
    id: u64,
    mut rec: Option<&mut Recorder>,
) -> Result<Option<Vec<Value>>, String> {
    let (code, ack) = match rec.as_deref_mut() {
        Some(r) => r.span("server.post", id, |_| conn.post("/batch", body))?,
        None => conn.post("/batch", body)?,
    };
    if code == 503 {
        return Ok(None);
    }
    if code != 200 {
        return Err(format!("POST /batch answered {code}: {ack}"));
    }
    let mut docs = Vec::new();
    for job in client::job_ids(&ack)? {
        let path = format!("/job/{job}?wait=1");
        loop {
            let (code, text) = match rec.as_deref_mut() {
                Some(r) => r.span("server.wait", id, |_| conn.get(&path))?,
                None => conn.get(&path)?,
            };
            if code != 200 {
                return Err(format!("GET /job answered {code}: {text}"));
            }
            let doc = tetris_server::json::parse(&text)?;
            if doc.get("status").and_then(Value::as_str) == Some("done") {
                docs.push(doc);
                break;
            }
        }
    }
    Ok(Some(docs))
}

// ------------------------------------------------------------- workloads

/// One cycle of class indices, `shares[c]` of class `c`, in seeded order:
/// every 100 requests carry exactly the stated mix.
fn class_cycle(shares: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut slots: Vec<usize> = shares
        .iter()
        .enumerate()
        .flat_map(|(c, n)| std::iter::repeat_n(c, *n))
        .collect();
    rng.shuffle(&mut slots);
    slots
}

fn warm_requests(seed: u64, cycles: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed, 2);
    let hot = jobs::warm_hot_set();
    let shares: Vec<usize> = WARM_MIX.iter().map(|(n, _)| *n).collect();
    let mut out = Vec::new();
    for _ in 0..cycles {
        for c in class_cycle(&shares, &mut rng) {
            let members: Vec<&Spec> = hot
                .iter()
                .filter(|s| WARM_MIX[c].1.contains(&s.workload.as_str()))
                .collect();
            let spec = members[rng.below(members.len())].clone();
            out.push(Request {
                specs: vec![spec],
                class: Class::Hot,
                due_s: 0.0,
            });
        }
    }
    out
}

/// The seeded resident-batch shapes: small MaxCut workloads.
fn resident_pool(seed: u64) -> Vec<Spec> {
    (0..RESIDENT_POOL)
        .map(|k| {
            let s = 7_000_000 + (seed % 1_000_000) * 16 + k as u64;
            let name = if k % 2 == 0 {
                format!("REG3-{}-s{s}", 6 + 2 * (k / 2))
            } else {
                format!("RAND-{}-{}-s{s}", 6 + k, 9 + k)
            };
            Spec::new(name, "tetris", RESIDENT_DEVICE)
        })
        .collect()
}

/// The `i`-th cold miss of a run: a name no earlier request used. Two in
/// three are QAOA compiles under Tetris, which set p90; one in three is
/// LiH under Paulihedral on a fresh calibrated device.
fn cold_miss(seed: u64, i: u64) -> Spec {
    let s = (seed % 1_000_000) * 100_000 + i;
    match i % 3 {
        0 => Spec::new(
            format!("REG3-{}-s{s}", 12 + 2 * (i / 3 % 3)),
            "tetris",
            "heavy-hex",
        ),
        1 => Spec::new(
            format!("RAND-{}-{}-s{s}", 14 + i / 3 % 3, 22 + i / 3 % 5),
            "tetris",
            "heavy-hex",
        ),
        _ => Spec::new("LiH-JW", "paulihedral", &format!("heavy-hex!cal-s{s}")),
    }
}

/// The open-loop schedule; cold-miss names count up from `first_miss`, so
/// two schedules of one run never share a miss.
fn mixed_requests(seed: u64, seconds: f64, first_miss: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 3 + first_miss);
    let hot = jobs::mixed_hot_set();
    let pool = resident_pool(seed);
    let mut out = Vec::new();
    let mut misses = first_miss;
    let mut slots: Vec<usize> = Vec::new();
    // Hits walk the hot set in seeded shuffled rounds, so every run hits
    // each triple equally often.
    let mut hot_order: Vec<usize> = Vec::new();
    // A fixed number of arrivals per epoch, one at a seeded uniform time in
    // each of `MIXED_RATE` equal slots of its active part: every run offers
    // the same load, and arrivals never bunch into a queue that a slower
    // host would lengthen.
    let slot = MIXED_ACTIVE / MIXED_RATE as f64;
    let mut dues: Vec<f64> = Vec::new();
    for epoch in 0..seconds.ceil() as usize {
        for k in 0..MIXED_RATE {
            let t = epoch as f64 + slot * (k as f64 + rng.unit());
            if t < seconds {
                dues.push(t);
            }
        }
    }
    for due_s in dues {
        if slots.is_empty() {
            slots = class_cycle(&MIXED_MIX, &mut rng);
        }
        let (class, specs) = match slots.pop().expect("refilled") {
            0 => {
                if hot_order.is_empty() {
                    hot_order = (0..hot.len()).collect();
                    rng.shuffle(&mut hot_order);
                }
                let pick = hot_order.pop().expect("refilled");
                (Class::Hot, vec![hot[pick].clone()])
            }
            1 => (
                Class::Resident,
                (0..RESIDENT_BATCH)
                    .map(|_| pool[rng.below(pool.len())].clone())
                    .collect(),
            ),
            _ => {
                misses += 1;
                (Class::Miss, vec![cold_miss(seed, misses)])
            }
        };
        out.push(Request {
            specs,
            class,
            due_s,
        });
    }
    out
}

// ------------------------------------------------------------ the window

struct Sample {
    req: usize,
    latency_ms: f64,
    late_ms: f64,
    /// `Err` for transport failures, `Ok(None)` for a shed batch.
    docs: Result<Option<Vec<Value>>, String>,
}

struct Window {
    samples: Vec<Sample>,
    busy_s: f64,
    max_inflight: usize,
}

fn run_window(
    kind: Kind,
    port: u16,
    reqs: &[Request],
    seconds: f64,
    cal: &mut Calibration,
    rec: Option<&mut Recorder>,
) -> Result<Window, String> {
    let gate = RwLock::new(());
    let stop = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let inflight = AtomicUsize::new(0);
    let max_inflight = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let recorders = Mutex::new(Vec::new());
    let parent = rec.as_deref().map(Recorder::fork);
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        conns.push(Conn::open(port).map_err(|e| format!("connect: {e}"))?);
    }
    let mut probe = match parent {
        Some(_) => Some(Conn::open(port).map_err(|e| e.to_string())?),
        None => None,
    };
    let start = Instant::now();
    let mut quiet_s = 0.0;
    std::thread::scope(|scope| {
        for mut conn in conns {
            let (gate, stop, next, inflight, max_inflight) =
                (&gate, &stop, &next, &inflight, &max_inflight);
            let (samples, recorders, parent) = (&samples, &recorders, &parent);
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut thread_rec = parent.as_ref().map(Recorder::fork);
                let mut last_done = Instant::now();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let (req, due) = match kind {
                        Kind::Warm => {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            (i % reqs.len(), None)
                        }
                        Kind::Mixed => {
                            if i >= reqs.len() {
                                break;
                            }
                            let due = start + Duration::from_secs_f64(reqs[i].due_s);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            (i, Some(due))
                        }
                    };
                    let _open = gate.read().expect("gate lock: a sender panicked");
                    let sent = Instant::now();
                    let from = due.unwrap_or(sent);
                    let late_ms = (sent - due.unwrap_or(last_done)).as_secs_f64() * 1e3;
                    let now_inflight = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                    max_inflight.fetch_max(now_inflight, Ordering::SeqCst);
                    let docs =
                        exchange(&mut conn, &reqs[req].body(), i as u64, thread_rec.as_mut());
                    inflight.fetch_sub(1, Ordering::SeqCst);
                    last_done = Instant::now();
                    let failed = docs.is_err();
                    mine.push(Sample {
                        req,
                        latency_ms: (last_done - from).as_secs_f64() * 1e3,
                        late_ms,
                        docs,
                    });
                    if failed {
                        // The connection state is unknown after a transport
                        // error; reconnect for the next request.
                        match Conn::open(port) {
                            Ok(c) => conn = c,
                            Err(_) => break,
                        }
                    }
                }
                samples.lock().expect("a load thread panicked").extend(mine);
                if let Some(r) = thread_rec {
                    recorders.lock().expect("a load thread panicked").push(r);
                }
            });
        }
        if let (Some(mut conn), Some(parent)) = (probe.take(), &parent) {
            let (stop, recorders) = (&stop, &recorders);
            scope.spawn(move || {
                let mut r = parent.fork();
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if r.span("server.healthz", (1 << 50) + k, |_| conn.get("/healthz"))
                        .is_err()
                    {
                        break;
                    }
                    k += 1;
                    std::thread::sleep(Duration::from_millis(25));
                }
                recorders.lock().expect("a load thread panicked").push(r);
            });
        }
        // Quiet windows: hold the gate so no request is in flight (and the
        // single-worker server is idle) while the kernel runs.
        match kind {
            Kind::Warm => loop {
                std::thread::sleep(WARM_QUIET_EVERY);
                if start.elapsed().as_secs_f64() >= seconds {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                let _quiet = gate.write().expect("gate lock: a sender panicked");
                let t = Instant::now();
                cal.window();
                quiet_s += t.elapsed().as_secs_f64();
            },
            Kind::Mixed => {
                for epoch in 0..seconds.ceil() as u64 {
                    let quiet_at =
                        start + Duration::from_secs_f64(epoch as f64 + MIXED_ACTIVE + 0.01);
                    if let Some(wait) = quiet_at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let _quiet = gate.write().expect("gate lock: a sender panicked");
                    for _ in 0..MIXED_QUIET_KERNELS {
                        if start.elapsed().as_secs_f64() < epoch as f64 + 0.99 {
                            cal.window();
                        }
                    }
                }
                stop.store(true, Ordering::Relaxed);
            }
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    if let Some(rec) = rec {
        for r in recorders.into_inner().expect("a load thread panicked") {
            rec.absorb(r);
        }
    }
    // The open loop's quiet windows sit in schedule gaps, so only the
    // closed loop's are taken out of its window.
    let busy_s = match kind {
        Kind::Warm => elapsed - quiet_s,
        Kind::Mixed => elapsed,
    };
    Ok(Window {
        samples: samples.into_inner().expect("a load thread panicked"),
        busy_s,
        max_inflight: max_inflight.load(Ordering::SeqCst),
    })
}

// ------------------------------------------------------------- set-up

struct Setup {
    server: Server,
    _cache: Option<TempDir>,
    /// Prewarmed hot-set outcomes, each spec once.
    hot: Vec<(Spec, Outcome)>,
}

/// Child start, server ready on `/healthz`, hot-set prewarm (and, for
/// `serve-mixed`, every resident shape once).
fn setup(ctx: &Ctx, kind: Kind, report: &mut Report) -> Result<Setup, String> {
    let mut args: Vec<String> = vec!["--threads".into(), "1".into()];
    let cache = match kind {
        // The closed loop's request count follows host speed; a short job
        // TTL keeps the job table, and so the peak RSS, from following it.
        // The open loop's count is fixed, so its table keeps every record.
        Kind::Warm => {
            args.extend(["--job-ttl-secs".into(), "2".into()]);
            None
        }
        Kind::Mixed => {
            let dir = TempDir::new(&ctx.scratch, "serve-cache")?;
            args.extend([
                "--cache-dir".into(),
                dir.0.display().to_string(),
                "--cache-capacity".into(),
                MIXED_MEMORY_CAPACITY.to_string(),
            ]);
            Some(dir)
        }
    };
    let server = Server::start(&ctx.server_bin, &args)?;
    let hot_set = match kind {
        Kind::Warm => jobs::warm_hot_set(),
        Kind::Mixed => jobs::mixed_hot_set(),
    };
    let mut conn = Conn::open(server.port).map_err(|e| e.to_string())?;
    let mut hot = Vec::new();
    let mut workloads: Vec<&str> = hot_set.iter().map(|s| s.workload.as_str()).collect();
    workloads.dedup();
    for w in workloads {
        let specs: Vec<Spec> = hot_set
            .iter()
            .filter(|s| s.workload == w)
            .cloned()
            .collect();
        let req = Request {
            specs,
            class: Class::Hot,
            due_s: 0.0,
        };
        let docs = exchange(&mut conn, &req.body(), 0, None)?.ok_or("prewarm shed")?;
        for (spec, doc) in req.specs.into_iter().zip(&docs) {
            let got = Outcome::from_json(doc)?;
            if let Err(e) = ctx.expected.check(&spec, got) {
                report.problems.push(e);
            }
            hot.push((spec, got));
        }
    }
    if kind == Kind::Mixed {
        for batch in resident_pool(ctx.seed).chunks(RESIDENT_BATCH) {
            let req = Request {
                specs: batch.to_vec(),
                class: Class::Resident,
                due_s: 0.0,
            };
            exchange(&mut conn, &req.body(), 0, None)?.ok_or("prewarm shed")?;
        }
    }
    Ok(Setup {
        server,
        _cache: cache,
        hot,
    })
}

// ------------------------------------------------------------- checks

/// Checks every job record of the window. Hot-set jobs against the
/// expected table; cold misses against an in-process compile of the same
/// triple; resident jobs against an in-process compile on the induced
/// subgraph of the region they were placed on. Returns (correct jobs,
/// attempted jobs, failed requests).
fn check(
    ctx: &Ctx,
    reqs: &[Request],
    w: &Window,
    report: &mut Report,
) -> Result<(u64, u64, u64), String> {
    let mut recompiled: HashMap<(Spec, Vec<usize>), Outcome> = HashMap::new();
    let (mut ok, mut attempted, mut failed) = (0, 0, 0);
    for s in &w.samples {
        let req = &reqs[s.req];
        attempted += req.specs.len() as u64;
        let docs = match &s.docs {
            Ok(Some(docs)) => docs,
            Ok(None) | Err(_) => {
                failed += 1;
                continue;
            }
        };
        if docs.len() != req.specs.len() {
            report.problems.push(format!(
                "request {}: {} records for {} jobs",
                s.req,
                docs.len(),
                req.specs.len()
            ));
        }
        for (spec, doc) in req.specs.iter().zip(docs) {
            let verdict = Outcome::from_json(doc).and_then(|got| match req.class {
                Class::Hot => ctx.expected.check(spec, got),
                Class::Miss | Class::Resident => {
                    let region: Vec<usize> = doc
                        .get("region")
                        .and_then(Value::as_arr)
                        .map(|r| {
                            r.iter()
                                .filter_map(Value::as_num)
                                .map(|q| q as usize)
                                .collect()
                        })
                        .unwrap_or_default();
                    let key = (spec.clone(), region);
                    let want = match recompiled.get(&key) {
                        Some(o) => *o,
                        None => {
                            let o = recompile(spec, &key.1)?;
                            recompiled.insert(key, o);
                            o
                        }
                    };
                    if want == got {
                        Ok(())
                    } else {
                        Err(format!("{spec:?}: got {got:?}, in-process {want:?}"))
                    }
                }
            });
            match verdict {
                Ok(()) => ok += 1,
                Err(e) => report.problems.push(e),
            }
        }
    }
    Ok((ok, attempted, failed))
}

/// In-process compile of `spec`, on the induced subgraph of `region` when
/// the server placed the job on one.
fn recompile(spec: &Spec, region: &[usize]) -> Result<Outcome, String> {
    let job = spec.build()?;
    if region.is_empty() {
        return Ok(Outcome::of(&job.run()));
    }
    let region = Region::new(job.graph.n_qubits(), region.iter().copied());
    let induced = job.graph.induced(&region);
    Ok(Outcome::of(
        &job.backend.compile(&job.hamiltonian, &induced),
    ))
}

fn stats_ratio(port: u16, block: &str, key: &str) -> Result<f64, String> {
    let mut conn = Conn::open(port).map_err(|e| e.to_string())?;
    let (_, body) = conn.get("/stats")?;
    let doc = tetris_server::json::parse(&body)?;
    doc.get(block)
        .and_then(|b| b.get(key))
        .and_then(Value::as_num)
        .ok_or(format!("/stats has no {block}.{key}"))
}

fn guard(ctx: &Ctx, w: &Window) -> Result<(), String> {
    if SERVER_THREADS > ctx.nproc || w.max_inflight > CONNECTIONS {
        return Err(format!(
            "{SERVER_THREADS} server threads and {} requests in flight on {} cores",
            w.max_inflight, ctx.nproc
        ));
    }
    Ok(())
}

pub fn run(ctx: &Ctx, kind: Kind) -> Result<Report, String> {
    let (mut cal, mut setup_cal) = (Calibration::default(), Calibration::default());
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut s = None;
    // Set-ups per run (`setup_s` is their median); the warm prewarm
    // compiles molecules, so it repeats fewer times.
    let setups = match kind {
        Kind::Warm => 3,
        Kind::Mixed => 9,
    };
    for _ in 0..if ctx.trace { 1 } else { setups } {
        drop(s.take());
        report.problems.clear();
        let t = Instant::now();
        s = Some(setup(ctx, kind, &mut report)?);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_cal.window();
    }
    let s = s.expect("set up");
    // Calibrate the timed window only: one quiet window here, the rest
    // inside the window.
    cal.window();
    let quality = Quality::of(&s.hot);
    let slo_ms = match kind {
        Kind::Warm => WARM_SLO_MS,
        Kind::Mixed => MIXED_SLO_MS,
    };
    let reqs_for = |seconds: f64, first_miss: u64| match kind {
        Kind::Warm => warm_requests(ctx.seed, 60),
        Kind::Mixed => mixed_requests(ctx.seed, seconds, first_miss),
    };

    if !ctx.trace {
        let reqs = reqs_for(ctx.seconds, 0);
        let w = run_window(kind, s.server.port, &reqs, ctx.seconds, &mut cal, None)?;
        guard(ctx, &w)?;
        let peak_rss_mb = s.server.peak_rss_mb().unwrap_or(f64::NAN);
        drop(s);
        let (ok, attempted, failed) = check(ctx, &reqs, &w, &mut report)?;
        report.attempted = w.samples.len() as u64;
        report.failed = failed;
        EndToEnd {
            setup_s,
            busy_window_s: w.busy_s,
            jobs_ok: ok,
            jobs_attempted: attempted,
            latencies_ms: w
                .samples
                .iter()
                .filter(|x| matches!(x.docs, Ok(Some(_))))
                .map(|x| x.latency_ms)
                .collect(),
            requests: w.samples.len() as u64,
            slo_ms,
            open_loop: kind == Kind::Mixed,
            quality,
            peak_rss_mb,
        }
        .report(&mut report, &cal, &setup_cal)?;
        return Ok(report);
    }

    // Traced run: half the window untraced, half traced (client spans and
    // a `/healthz` prober), then the replay of the traced requests.
    let half = ctx.seconds / 2.0;
    let reqs = reqs_for(half, 0);
    let traced_reqs = reqs_for(half, 1 << 20);
    let plain = run_window(kind, s.server.port, &reqs, half, &mut cal, None)?;
    let mut rec = Recorder::new(Instant::now());
    let traced = run_window(
        kind,
        s.server.port,
        &traced_reqs,
        half,
        &mut cal,
        Some(&mut rec),
    )?;
    guard(ctx, &plain)?;
    guard(ctx, &traced)?;
    let mem_hit_ratio = stats_ratio(s.server.port, "cache", "hit_ratio")?;
    let disk_hit_ratio = stats_ratio(s.server.port, "cache", "disk_hit_ratio")?;
    let carve_skip_ratio = match kind {
        Kind::Warm => None,
        Kind::Mixed => Some(stats_ratio(s.server.port, "scheduler", "carve_skip_ratio")?),
    };
    drop(s);
    let (ok, _, _) = check(ctx, &reqs, &plain, &mut report)?;
    let (_, _, traced_failed) = check(ctx, &traced_reqs, &traced, &mut report)?;
    report.attempted = (plain.samples.len() + traced.samples.len()) as u64;
    let shed = |w: &Window| {
        w.samples
            .iter()
            .filter(|x| matches!(x.docs, Ok(None)))
            .count()
    };
    report.failed = traced_failed;

    let mut inputs = Inputs::default();
    let mut pairs = std::collections::BTreeSet::new();
    let grid = Arc::new(tetris_topology::CouplingGraph::grid(12, 12));
    for (k, sample) in traced.samples.iter().enumerate() {
        let req = &traced_reqs[sample.req];
        inputs.requests.push(Replayed {
            id: k as u64,
            specs: req.specs.clone(),
            body: req.body(),
        });
        if req.class == Class::Resident {
            let batch: Result<Vec<_>, String> = req.specs.iter().map(Spec::build).collect();
            inputs.resident.push(batch?);
        } else if pairs.insert((req.specs[0].workload.clone(), req.specs[0].device.clone())) {
            let job = req.specs[0].build()?;
            inputs
                .pairs
                .push((job.name.clone(), job.hamiltonian, job.graph));
        }
    }
    if inputs.resident.is_empty() {
        // No resident traffic: carve and schedule the hot set's 2-local
        // workloads on the resident device instead.
        let batch: Vec<_> = jobs::warm_hot_set()
            .iter()
            .filter(|s| s.workload.starts_with("REG3") || s.workload.starts_with("RAND"))
            .map(|s| {
                s.build().map(|j| {
                    tetris_engine::CompileJob::new(j.name, j.backend, j.hamiltonian, grid.clone())
                })
            })
            .collect::<Result<_, _>>()?;
        inputs.resident = vec![batch.clone(), batch];
    }
    let counts = layers::replay(&inputs, ctx, &mut rec)?;
    ctx.write_spans(&rec)?;

    let lat: Vec<f64> = plain.samples.iter().map(|x| x.latency_ms).collect();
    let late: Vec<f64> = plain.samples.iter().map(|x| x.late_ms).collect();
    let mean =
        |w: &Window| w.samples.iter().map(|x| x.latency_ms).sum::<f64>() / w.samples.len() as f64;
    let facts = Facts {
        mem_hit_ratio,
        disk_hit_ratio,
        carve_skip_ratio,
        shed_frac: (shed(&plain) + shed(&traced)) as f64 / report.attempted as f64,
        calib_ms: cal.median_ms(),
        gen_late_p90_ms: stats::percentile(&late, 0.9, "load.gen_late_p90_ms")?,
        raw_req_p50_ms: stats::percentile(&lat, 0.5, "load.raw_req_p50_ms")?,
        raw_jobs_per_s: ok as f64 / plain.busy_s,
        overhead_frac: mean(&traced) / mean(&plain) - 1.0,
    };
    layers::report(&mut report, &rec, &counts, &facts);
    Ok(report)
}
