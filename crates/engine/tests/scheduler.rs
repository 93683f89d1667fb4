//! Resident-region scheduling, end to end: carved regions survive across
//! batches, cold batches land on pinned regions with pinned digests,
//! repeat-shape traffic skips carving while staying bit-identical,
//! per-region FIFO queues serialize contending jobs, the defragmenter
//! un-fragments a starved wide job, and isomorphic regions share
//! content-addressed cache entries.

use std::sync::Arc;
use tetris_core::TetrisConfig;
use tetris_engine::{Backend, CompileJob, Engine, EngineConfig, JobResult, RegionScheduler};
use tetris_pauli::{Hamiltonian, PauliBlock, PauliTerm};
use tetris_topology::{CouplingGraph, Region};

fn engine(threads: usize) -> Engine {
    Engine::new(EngineConfig {
        threads,
        cache_capacity: 256,
        cache_dir: None,
        cache_max_bytes: None,
    })
}

/// A small multi-block workload of the given width (the phase feeds the
/// angles so no two jobs share content unless intended).
fn small_ham(name: &str, width: usize, phase: usize) -> Arc<Hamiltonian> {
    let mut blocks = Vec::new();
    for k in 0..width - 1 {
        let mut s = vec!['I'; width];
        s[k] = if (k + phase).is_multiple_of(2) {
            'X'
        } else {
            'Y'
        };
        s[k + 1] = 'Z';
        let string: String = s.into_iter().collect();
        blocks.push(PauliBlock::new(
            vec![PauliTerm::new(string.parse().unwrap(), 1.0)],
            0.15 + 0.05 * k as f64 + 0.013 * phase as f64,
            format!("b{k}"),
        ));
    }
    Arc::new(Hamiltonian::new(width, blocks, name))
}

fn job(name: &str, width: usize, phase: usize, graph: &Arc<CouplingGraph>) -> CompileJob {
    CompileJob::new(
        name,
        Backend::Tetris(TetrisConfig::default()),
        small_ham(name, width, phase),
        graph.clone(),
    )
}

/// `(region qubits, stats_digest)` of each [`service_batch`] job on a fresh
/// chip. Recorded from the per-batch shard planner before it was folded
/// into the scheduler: a cold batch must keep landing exactly there.
const SERVICE_PINS: [(&[usize], u64); 5] = [
    (&[31, 32, 33, 34], 0x033f_9ccf_b59f_64c1),
    (&[5, 6, 7, 8, 9], 0x9fc1_266e_1503_d01c),
    (&[10, 11, 12, 13, 14, 15], 0xb65b_2bad_978f_ec18),
    (&[18, 24, 25, 26, 27], 0x9fc1_266e_1503_d01c),
    (&[28, 29, 30, 37], 0x033f_9ccf_b59f_64c1),
];

/// `(region qubits, stats_digest)` of the 9-qubit `wide` job on an empty
/// 3x4 grid, recorded the same way.
const WIDE_PIN: (&[usize], u64) = (&[0, 1, 2, 3, 4, 5, 6, 7, 8], 0xff7f_e784_7be3_efa6);

fn assert_pinned(result: &JobResult, pin: (&[usize], u64)) {
    let region = result.region.as_ref().expect("placed on a region");
    assert_eq!(region.mask().to_vec(), pin.0, "{}", result.name);
    assert_eq!(result.output.stats_digest(), pin.1, "{}", result.name);
}

/// The steady-state service batch: five small workloads on the 130-node
/// heavy-hex chip, same shape every time.
fn service_batch(graph: &Arc<CouplingGraph>) -> Vec<CompileJob> {
    [4usize, 5, 6, 5, 4]
        .into_iter()
        .enumerate()
        .map(|(i, w)| job(&format!("svc{i}"), w, i, graph))
        .collect()
}

#[test]
fn resident_results_match_per_batch_sharding_and_repeats_skip_carving() {
    let graph = Arc::new(CouplingGraph::heavy_hex(7, 16));
    let scheduler = RegionScheduler::with_default_config();
    let resident_engine = engine(4);

    // Cold batch: every job carves a fresh region, one round.
    let first = scheduler.schedule_batch(&resident_engine, service_batch(&graph));
    assert_eq!(first.results.len(), 5);
    assert!(first.results.iter().all(|r| r.error.is_none()));
    assert_eq!(first.report.rounds, 1);
    assert_eq!(first.report.carves_performed, 5);
    assert_eq!(first.report.carves_skipped, 0);
    assert_eq!(first.report.leftover, 0);

    // The cold whole-group carve lands on the pinned regions, so the
    // relabeled artifacts match the pinned digests exactly.
    for (result, pin) in first.results.iter().zip(SERVICE_PINS) {
        assert_pinned(result, pin);
    }

    // Repeat-shape traffic: zero carves, every placement served by the
    // free-list, every artifact straight from the resident cache.
    let again = scheduler.schedule_batch(&resident_engine, service_batch(&graph));
    assert_eq!(again.report.carves_performed, 0);
    assert_eq!(again.report.carves_skipped, 5);
    assert!(again.results.iter().all(|r| r.cached));
    for (a, b) in first.results.iter().zip(&again.results) {
        assert_eq!(a.region, b.region);
        assert_eq!(a.output.stats_digest(), b.output.stats_digest());
    }
    assert!((scheduler.stats().carve_skip_ratio() - 0.5).abs() < 1e-12);

    // The free-list survives between batches: one device, five resident
    // regions, all idle, two jobs served each.
    let snapshot = scheduler.snapshot();
    assert_eq!(snapshot.len(), 1);
    assert_eq!(snapshot[0].device_qubits, 130);
    assert_eq!(snapshot[0].regions.len(), 5);
    assert!(snapshot[0].regions.iter().all(|r| !r.busy));
    assert!(snapshot[0].regions.iter().all(|r| r.jobs_served == 2));

    // A grown batch reuses what fits and carves only the new shape.
    let mut grown = service_batch(&graph);
    grown.push(job("svc5", 7, 5, &graph));
    let third = scheduler.schedule_batch(&resident_engine, grown);
    assert_eq!(third.report.carves_skipped, 5);
    assert_eq!(third.report.carves_performed, 1);
    assert!(third.results.iter().all(|r| r.error.is_none()));
}

#[test]
fn per_region_fifo_serializes_contending_jobs() {
    // Two 4-qubit jobs on a 6-qubit grid: only one 4-region fits, so the
    // second job takes a ticket and runs on the same region one round
    // later.
    let graph = Arc::new(CouplingGraph::grid(2, 3));
    let scheduler = RegionScheduler::with_default_config();
    let eng = engine(2);
    let batch = scheduler.schedule_batch(
        &eng,
        vec![job("first", 4, 0, &graph), job("second", 4, 1, &graph)],
    );
    assert!(batch.results.iter().all(|r| r.error.is_none()));
    assert_eq!(batch.report.rounds, 2);
    assert_eq!(batch.report.carves_performed, 1);
    assert_eq!(batch.report.carves_skipped, 1);
    assert_eq!(batch.report.peak_queue_depth, 1);
    assert_eq!(batch.report.leftover, 0);
    assert_eq!(
        batch.results[0].region, batch.results[1].region,
        "both jobs ran on the one region"
    );
    // One region resident afterwards, idle, having served both jobs.
    let snapshot = scheduler.snapshot();
    assert_eq!(snapshot[0].regions.len(), 1);
    assert!(!snapshot[0].regions[0].busy);
    assert_eq!(snapshot[0].regions[0].jobs_served, 2);
    assert_eq!(snapshot[0].regions[0].queue_depth, 0);
}

#[test]
fn defragmenter_recarves_for_a_starved_wide_job() {
    // Four 3-qubit jobs tile the whole 12-qubit grid; the following
    // 9-qubit job finds no compatible region and no room to carve — the
    // defragmenter must release the idle tiles and re-carve, and the job's
    // artifact must match the pinned fresh-chip compile of the same job
    // (defrag compacts back to the empty-chip carve).
    let graph = Arc::new(CouplingGraph::grid(3, 4));
    let scheduler = RegionScheduler::with_default_config();
    let eng = engine(2);

    let tiles: Vec<CompileJob> = (0..4)
        .map(|i| job(&format!("tile{i}"), 3, i, &graph))
        .collect();
    let first = scheduler.schedule_batch(&eng, tiles);
    assert_eq!(first.report.carves_performed, 4);
    assert!(first.results.iter().all(|r| r.error.is_none()));
    assert_eq!(scheduler.stats().resident_qubits, 12, "chip fully tiled");

    let wide = scheduler.schedule_batch(&eng, vec![job("wide", 9, 7, &graph)]);
    let result = &wide.results[0];
    assert!(result.error.is_none(), "{:?}", result.error);
    assert_eq!(wide.report.defrags, 1);
    assert_eq!(wide.report.carves_performed, 1);
    assert_eq!(wide.report.leftover, 0, "defrag made room — no fallback");
    let region = result.region.as_ref().expect("placed after defrag");
    assert_eq!(region.len(), 9);
    assert!(graph.is_region_connected(region));

    let stats = scheduler.stats();
    assert_eq!(stats.defrags, 1);
    assert_eq!(stats.regions_released, 4, "all idle tiles released");
    assert_eq!(stats.resident_regions, 1, "only the re-carved region left");

    // The defragmented chip is empty again, so the re-carve is the
    // empty-chip carve: pinned region, pinned digest.
    assert_pinned(result, WIDE_PIN);
}

#[test]
fn isomorphic_regions_share_one_cache_entry() {
    // Two disjoint, identically-wired patches of the heavy-hex service
    // chip: rows 0–1 with their col-0/col-4 bridges, and the same patch
    // translated down two rows. Translation preserves the ascending
    // member order, so the induced subgraphs are equal re-indexed graphs
    // — equal fingerprints, equal job cache keys, one compile.
    let graph = Arc::new(CouplingGraph::heavy_hex(7, 16));
    let a = Region::new(130, [0, 1, 2, 3, 4, 16, 17, 19, 20, 21, 22, 23]);
    let b = Region::new(130, [38, 39, 40, 41, 42, 54, 55, 57, 58, 59, 60, 61]);
    assert!(a.is_disjoint_from(&b));
    assert!(graph.is_region_connected(&a));
    assert!(graph.is_region_connected(&b));
    let induced_a = Arc::new(graph.induced(&a));
    let induced_b = Arc::new(graph.induced(&b));
    assert_eq!(
        induced_a.fingerprint(),
        induced_b.fingerprint(),
        "identical local wiring fingerprints identically"
    );

    let eng = engine(2);
    let ham = small_ham("iso", 12, 0);
    let on_a = CompileJob::new(
        "iso-a",
        Backend::Tetris(TetrisConfig::default()),
        ham.clone(),
        induced_a,
    );
    let on_b = CompileJob::new(
        "iso-b",
        Backend::Tetris(TetrisConfig::default()),
        ham,
        induced_b,
    );
    assert_eq!(on_a.cache_key(), on_b.cache_key());

    let first = eng.compile_batch(vec![on_a]);
    let cold = eng.cache_stats();
    assert!(!first[0].cached);
    let second = eng.compile_batch(vec![on_b]);
    let warm = eng.cache_stats();
    assert!(
        second[0].cached,
        "the isomorphic region must hit the shared entry"
    );
    assert_eq!(warm.hits, cold.hits + 1, "exactly one extra hit");
    assert_eq!(warm.misses, cold.misses, "and no extra miss");
    assert_eq!(
        first[0].output.stats_digest(),
        second[0].output.stats_digest()
    );
}

#[test]
fn impossible_jobs_fall_back_whole_chip_with_a_clean_error() {
    // Wider than the device: never placed, compiled whole-chip, and the
    // compiler's own failure is reported — not a hang, not a panic.
    let graph = Arc::new(CouplingGraph::line(4));
    let scheduler = RegionScheduler::new(tetris_engine::SchedulerConfig { starve_rounds: 1 });
    let eng = engine(2);
    let batch = scheduler.schedule_batch(
        &eng,
        vec![job("narrow", 3, 0, &graph), job("wide", 7, 1, &graph)],
    );
    assert!(batch.results[0].error.is_none());
    assert!(batch.results[0].region.is_some());
    assert!(batch.results[1].error.is_some(), "too wide fails cleanly");
    assert!(batch.results[1].region.is_none());
    assert_eq!(batch.report.leftover, 1);
}
