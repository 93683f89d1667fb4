//! Job specs, the workloads' fixed job sets, recorded expected outputs and
//! the output checks (expected table, in-process recompiles, statevector
//! oracle).

use std::collections::HashMap;
use std::sync::Arc;
use tetris_circuit::{Circuit, Gate};
use tetris_core::TetrisCompiler;
use tetris_engine::{Backend, CompileBackend, CompileJob, Engine, EngineConfig, EngineOutput};
use tetris_pauli::encoder::Encoding;
use tetris_pauli::fermion::double_excitation;
use tetris_pauli::{Hamiltonian, PauliBlock, PauliString};
use tetris_server::json::Value;
use tetris_server::registry;
use tetris_sim::Statevector;
use tetris_topology::{CouplingGraph, Layout};

/// The paper's compiler sweep by wire name, in `Backend::evaluation_sweep`
/// order.
pub const SWEEP_BACKENDS: [&str; 5] = [
    "tket",
    "pcoast",
    "paulihedral",
    "tetris-nolookahead",
    "tetris",
];

/// The six molecules under both encodings, smallest first.
pub const MOLECULES: [&str; 12] = [
    "LiH-JW", "LiH-BK", "BeH2-JW", "BeH2-BK", "CH4-JW", "CH4-BK", "MgH2-JW", "MgH2-BK", "LiCl-JW",
    "LiCl-BK", "CO2-JW", "CO2-BK",
];

/// One job as the HTTP API names it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Spec {
    pub workload: String,
    pub backend: String,
    pub device: String,
}

impl Spec {
    pub fn new(workload: impl Into<String>, backend: &str, device: &str) -> Spec {
        Spec {
            workload: workload.into(),
            backend: backend.to_string(),
            device: device.to_string(),
        }
    }

    /// The spec's `jobs` entry in a `POST /batch` body.
    pub fn json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"backend\": \"{}\", \"device\": \"{}\"}}",
            self.workload, self.backend, self.device
        )
    }

    fn key(&self) -> String {
        format!("{}\t{}\t{}", self.workload, self.backend, self.device)
    }

    /// Builds the job through the registry, as the server does.
    pub fn build(&self) -> Result<CompileJob, String> {
        let ham =
            registry::workload(&self.workload).ok_or(format!("workload {}", self.workload))?;
        let graph = registry::device(&self.device).ok_or(format!("device {}", self.device))?;
        let backend =
            registry::backend(&self.backend).ok_or(format!("backend {}", self.backend))?;
        Ok(CompileJob::new(
            self.workload.clone(),
            backend,
            Arc::new(ham),
            Arc::new(graph),
        ))
    }
}

/// The deterministic part of one compiled job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub cnots: u64,
    pub depth: u64,
    pub duration: u64,
    pub digest: u64,
}

impl Outcome {
    pub fn of(out: &EngineOutput) -> Outcome {
        Outcome {
            cnots: out.stats.total_cnots() as u64,
            depth: out.stats.metrics.depth as u64,
            duration: out.stats.metrics.duration,
            digest: out.stats_digest(),
        }
    }

    /// Reads a `GET /job/<id>` result record.
    pub fn from_json(v: &Value) -> Result<Outcome, String> {
        if let Some(e) = v.get("error").and_then(Value::as_str) {
            return Err(format!("job error: {e}"));
        }
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_num)
                .map(|n| n as u64)
                .ok_or(format!("no `{k}`"))
        };
        let digest = v
            .get("stats_digest")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("no `stats_digest`")?;
        Ok(Outcome {
            cnots: num("cnots")?,
            depth: num("depth")?,
            duration: num("duration")?,
            digest,
        })
    }
}

/// Expected outputs of every named job a workload can issue, recorded
/// from the compilers (`perfbench --write-expected`).
pub struct Expected(HashMap<String, Outcome>);

impl Expected {
    pub fn load() -> Expected {
        let mut map = HashMap::new();
        for line in include_str!("../expected.tsv").lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let n = |i: usize| f[i].parse::<u64>().expect("expected.tsv number");
            let outcome = Outcome {
                cnots: n(3),
                depth: n(4),
                duration: n(5),
                digest: u64::from_str_radix(f[6], 16).expect("expected.tsv digest"),
            };
            map.insert(format!("{}\t{}\t{}", f[0], f[1], f[2]), outcome);
        }
        Expected(map)
    }

    pub fn get(&self, spec: &Spec) -> Option<Outcome> {
        self.0.get(&spec.key()).copied()
    }

    /// Ok when `got` equals the recorded outcome; a spec missing from the
    /// table is an error too.
    pub fn check(&self, spec: &Spec, got: Outcome) -> Result<(), String> {
        match self.get(spec) {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!("{}: got {got:?}, expected {want:?}", spec.key())),
            None => Err(format!("{}: no expected output recorded", spec.key())),
        }
    }
}

/// `sweep-cold`'s named jobs: six molecules (JW) and UCC-10/15/20 under
/// the paper's compiler sweep on heavy-hex.
pub fn sweep_named() -> Vec<Spec> {
    let workloads = [
        "LiH-JW", "BeH2-JW", "CH4-JW", "MgH2-JW", "LiCl-JW", "CO2-JW", "UCC-10", "UCC-15", "UCC-20",
    ];
    let mut out = Vec::new();
    for w in workloads {
        for b in SWEEP_BACKENDS {
            out.push(Spec::new(w, b, "heavy-hex"));
        }
    }
    out
}

/// `serve-warm`'s hot set (40 triples on heavy-hex): LiH…MgH2 under
/// Tetris, Paulihedral and TKet, LiCl and CO2 under Paulihedral (the
/// cheapest compile, to keep the prewarm short), both encodings each, and
/// eight small UCC/QAOA triples.
pub fn warm_hot_set() -> Vec<Spec> {
    let mut out = Vec::new();
    for w in MOLECULES {
        let backends: &[&str] = if w.starts_with("LiCl") || w.starts_with("CO2") {
            &["paulihedral"]
        } else {
            &["tetris", "paulihedral", "tket"]
        };
        for b in backends {
            out.push(Spec::new(w, b, "heavy-hex"));
        }
    }
    for (w, b) in [
        ("UCC-10", "tetris"),
        ("UCC-10", "tket"),
        ("UCC-16", "paulihedral"),
        ("UCC-16", "tetris"),
        ("REG3-16-s3", "tket"),
        ("REG3-16-s3", "tetris"),
        ("RAND-16-25-s5", "tetris"),
        ("RAND-16-25-s5", "paulihedral"),
    ] {
        out.push(Spec::new(w, b, "heavy-hex"));
    }
    out
}

/// `serve-mixed`'s hot set: small workloads under four compilers (24
/// triples, three times the server's memory-tier capacity).
pub fn mixed_hot_set() -> Vec<Spec> {
    let mut out = Vec::new();
    for w in ["UCC-10", "UCC-12", "LiH-JW", "LiH-BK", "BeH2-JW", "BeH2-BK"] {
        for b in ["tetris", "paulihedral", "tket", "pcoast"] {
            out.push(Spec::new(w, b, "heavy-hex"));
        }
    }
    out
}

/// CNOT, depth and duration totals over a fixed set of distinct jobs, and
/// the Tetris ÷ Paulihedral CNOT ratio over its molecule jobs.
pub struct Quality {
    pub cnots: u64,
    pub depth: u64,
    pub duration: u64,
    pub ratio_vs_ph: f64,
}

impl Quality {
    /// `outcomes` must hold every spec of the fixed set exactly once.
    pub fn of(outcomes: &[(Spec, Outcome)]) -> Quality {
        let mut q = Quality {
            cnots: 0,
            depth: 0,
            duration: 0,
            ratio_vs_ph: f64::NAN,
        };
        // Molecule → (Tetris CNOTs, Paulihedral CNOTs); the ratio counts
        // molecules compiled by both.
        let mut pairs: HashMap<&str, (Option<u64>, Option<u64>)> = HashMap::new();
        for (spec, o) in outcomes {
            q.cnots += o.cnots;
            q.depth += o.depth;
            q.duration += o.duration;
            if MOLECULES.contains(&spec.workload.as_str()) {
                let e = pairs.entry(spec.workload.as_str()).or_default();
                match spec.backend.as_str() {
                    "tetris" => e.0 = Some(o.cnots),
                    "paulihedral" => e.1 = Some(o.cnots),
                    _ => {}
                }
            }
        }
        let (mut tetris, mut ph) = (0u64, 0u64);
        for (t, p) in pairs.values() {
            if let (Some(t), Some(p)) = (t, p) {
                tetris += t;
                ph += p;
            }
        }
        q.ratio_vs_ph = tetris as f64 / ph as f64;
        q
    }
}

// ------------------------------------------------------------ the oracle

/// Small UCCSD-like workload: two double excitations on 6 qubits.
fn small_uccsd(encoding: Encoding) -> Hamiltonian {
    let g1 = double_excitation(6, 5, 4, 1, 0);
    let g2 = double_excitation(6, 4, 3, 2, 1);
    let blocks = vec![
        PauliBlock::new(encoding.encode(&g1), 0.31, "d1"),
        PauliBlock::new(encoding.encode(&g2), -0.47, "d2"),
    ];
    Hamiltonian::new(6, blocks, format!("small-{encoding}"))
}

/// Every backend, and whether it accepts only 2-local workloads.
fn all_backends() -> Vec<(Backend, bool)> {
    let mut v: Vec<(Backend, bool)> = Backend::evaluation_sweep()
        .into_iter()
        .map(|b| (b, false))
        .collect();
    v.extend([
        (
            Backend::Paulihedral {
                post_optimize: false,
            },
            false,
        ),
        (Backend::MaxCancel, false),
        (
            Backend::Generic(tetris_baselines::generic::OptLevel::PostRouteOnly),
            false,
        ),
        (Backend::Qaoa2qan { seed: 3 }, true),
    ]);
    v
}

/// Compiles the oracle set through `Engine::compile_batch` — a 6-qubit
/// UCCSD-like workload (JW and BK) on `grid-3x3` and `REG3-8` on `line-8`,
/// under every backend — and checks each circuit against the statevector
/// Pauli-evolution reference. Returns the failures.
pub fn oracle_check() -> Vec<String> {
    let engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 0,
        ..Default::default()
    });
    let grid = Arc::new(CouplingGraph::grid(3, 3));
    let line = Arc::new(CouplingGraph::line(8));
    let reg3 = Arc::new(registry::workload("REG3-8-s11").expect("REG3-8"));
    let cases = [
        (
            Arc::new(small_uccsd(Encoding::JordanWigner)),
            grid.clone(),
            false,
        ),
        (Arc::new(small_uccsd(Encoding::BravyiKitaev)), grid, false),
        (reg3, line, true),
    ];
    let mut jobs = Vec::new();
    for (ham, graph, two_local) in &cases {
        for (backend, only_2local) in all_backends() {
            if only_2local && !two_local {
                continue;
            }
            jobs.push(CompileJob::new(
                ham.name.clone(),
                backend,
                ham.clone(),
                graph.clone(),
            ));
        }
    }
    let results = engine.compile_batch(jobs.clone());
    let mut failures = Vec::new();
    for (job, r) in jobs.iter().zip(&results) {
        let ok = r.error.is_none() && evolves_like_reference(job, &r.output);
        if !ok {
            failures.push(format!(
                "oracle: {} under {} diverges from the reference",
                job.name, r.compiler
            ));
        }
    }
    failures
}

/// The statevector oracle. The input is the same generic single-qubit
/// state on every physical qubit, so it is invariant under any initial
/// placement: a correct routed circuit maps it to the logical evolution
/// applied at each logical qubit's *final* position. Tetris reorders and
/// regroups blocks, so its reference is the emission order a direct
/// `TetrisCompiler` run records (whose circuit must equal the engine's);
/// for the baselines every block order is tried unless all terms commute
/// (terms within one excitation block always commute).
fn evolves_like_reference(job: &CompileJob, out: &EngineOutput) -> bool {
    let (h, graph) = (&*job.hamiltonian, &*job.graph);
    if !out.circuit.is_hardware_compliant(graph) {
        return false;
    }
    let orders: Vec<Vec<&PauliBlock>> = match job.backend {
        Backend::Tetris(config) => {
            let direct = TetrisCompiler::new(config).compile(h, graph);
            if direct.circuit != out.circuit {
                return false;
            }
            return evolves_in_some_order(
                out,
                h.n_qubits,
                &[direct.emitted_blocks.iter().collect()],
            );
        }
        _ => {
            let terms: Vec<&PauliString> = h.terms().map(|t| &t.string).collect();
            if terms
                .iter()
                .all(|a| terms.iter().all(|b| a.commutes_with(b)))
            {
                vec![h.blocks.iter().collect()]
            } else {
                permutations(h.blocks.len())
                    .into_iter()
                    .map(|p| p.into_iter().map(|b| &h.blocks[b]).collect())
                    .collect()
            }
        }
    };
    evolves_in_some_order(out, h.n_qubits, &orders)
}

fn evolves_in_some_order(
    out: &EngineOutput,
    n_logical: usize,
    orders: &[Vec<&PauliBlock>],
) -> bool {
    let n = out.circuit.n_qubits();
    let layout = out
        .final_layout
        .clone()
        .unwrap_or_else(|| Layout::trivial(n_logical, n));
    let mut prep = Circuit::new(n);
    for q in 0..n {
        prep.push(Gate::H(q));
        prep.push(Gate::Rz(q, 0.37));
        prep.push(Gate::H(q));
        prep.push(Gate::Rz(q, 0.61));
    }
    let mut input = Statevector::zero_state(n);
    input.apply_circuit(&prep);
    let mut physical = input.clone();
    physical.apply_circuit(&out.circuit);
    let place = |s: &PauliString| -> PauliString {
        let mut p = PauliString::identity(n);
        for (q, op) in s.sparse() {
            p.set_op(layout.phys_of(q).expect("placed logical qubit"), op);
        }
        p
    };
    orders.iter().any(|order| {
        let mut reference = input.clone();
        for block in order {
            for t in &block.terms {
                reference.apply_pauli_exp(&place(&t.string), block.angle * t.coeff);
            }
        }
        physical.equals_up_to_global_phase(&reference, 1e-8)
    })
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for i in 0..=p.len() {
            let mut q = p.clone();
            q.insert(i, n - 1);
            out.push(q);
        }
    }
    out
}

/// Writes `expected.tsv`: compiles every named job of every workload
/// in-process and records its outcome.
pub fn write_expected(path: &std::path::Path) -> Result<(), String> {
    let mut specs: Vec<Spec> = sweep_named();
    specs.extend(warm_hot_set());
    specs.extend(mixed_hot_set());
    specs.sort();
    specs.dedup();
    let mut text =
        String::from("# workload\tbackend\tdevice\tcnots\tdepth\tduration\tstats_digest\n");
    for spec in &specs {
        let o = Outcome::of(&spec.build()?.run());
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\t{:016x}\n",
            spec.key(),
            o.cnots,
            o.depth,
            o.duration,
            o.digest
        ));
        eprintln!("{}", spec.key());
    }
    std::fs::write(path, text).map_err(|e| e.to_string())
}

/// Sanity check that the wire names above are the backends the paper's
/// sweep uses.
pub fn check_sweep_names() -> Result<(), String> {
    let sweep = Backend::evaluation_sweep();
    for (name, b) in SWEEP_BACKENDS.iter().zip(&sweep) {
        let wire = registry::backend(name).ok_or(format!("backend {name}"))?;
        if wire.fingerprint() != b.fingerprint() {
            return Err(format!(
                "wire backend {name} is not sweep backend {}",
                b.name()
            ));
        }
    }
    Ok(())
}
