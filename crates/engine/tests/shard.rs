//! Region-carved sharding, end to end on the service device: a batch of
//! small workloads packed onto one 130-node heavy-hex chip by the
//! [`RegionScheduler`] must come back on disjoint connected regions, in
//! global coordinates, hardware-compliant, deterministic, and
//! cache-separated from whole-chip compiles.

use std::sync::Arc;
use tetris_core::TetrisConfig;
use tetris_engine::{Backend, CompileJob, Engine, EngineConfig, RegionScheduler};
use tetris_pauli::mask::QubitMask;
use tetris_pauli::{Hamiltonian, PauliBlock, PauliTerm};
use tetris_topology::CouplingGraph;

fn engine(threads: usize) -> Engine {
    Engine::new(EngineConfig {
        threads,
        cache_capacity: 256,
        cache_dir: None,
        cache_max_bytes: None,
    })
}

/// A small multi-block workload of the given width.
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
            // The phase feeds the angle so no two batch jobs share
            // content — content-equal jobs would (correctly) coalesce in
            // the cache and confuse the cold/warm assertions below.
            0.15 + 0.05 * k as f64 + 0.013 * phase as f64,
            format!("b{k}"),
        ));
    }
    Arc::new(Hamiltonian::new(width, blocks, name))
}

/// The acceptance batch: ≥ 4 small workloads on the 130-node heavy-hex.
fn service_batch(graph: &Arc<CouplingGraph>) -> Vec<CompileJob> {
    [4usize, 5, 6, 5, 4]
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            CompileJob::new(
                format!("svc{i}"),
                Backend::Tetris(TetrisConfig::default()),
                small_ham(&format!("svc{i}"), w, i),
                graph.clone(),
            )
        })
        .collect()
}

#[test]
fn sharded_batch_packs_disjoint_regions_on_130_node_heavy_hex() {
    let graph = Arc::new(CouplingGraph::heavy_hex(7, 16));
    assert_eq!(graph.n_qubits(), 130);
    let scheduler = RegionScheduler::with_default_config();
    let batch = scheduler.schedule_batch(&engine(4), service_batch(&graph));

    assert_eq!(batch.results.len(), 5);
    assert_eq!(batch.report.leftover, 0, "all five jobs fit");
    assert_eq!(batch.report.carves_performed, 5);

    // Regions: connected, disjoint, sized to width + slack.
    let mut union = QubitMask::empty(130);
    for (r, width) in batch.results.iter().zip([4usize, 5, 6, 5, 4]) {
        assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
        let region = r.region.as_ref().expect("placed job carries its region");
        assert!(graph.is_region_connected(region));
        assert!(region.len() >= width && region.len() <= width + 2);
        assert!(
            union.is_disjoint_from(region.mask()),
            "regions must not overlap"
        );
        union.union_with(region.mask());

        // The relabeled circuit runs on the big device, confined to its
        // region, and its final layout places every logical qubit inside
        // the region.
        assert!(r.output.circuit.is_hardware_compliant(&graph));
        let mut touched = QubitMask::empty(130);
        for gate in r.output.circuit.gates() {
            for q in gate.qubits().iter() {
                touched.insert(q);
            }
        }
        assert!(
            touched.is_subset_of(region.mask()),
            "{}: circuit escapes its region",
            r.name
        );
        let layout = r
            .output
            .final_layout
            .as_ref()
            .expect("tetris tracks layout");
        assert_eq!(layout.n_physical(), 130);
        let mut placed = QubitMask::empty(130);
        for q in 0..layout.n_logical() {
            placed.insert(layout.phys_of(q).expect("placed"));
        }
        assert!(placed.is_subset_of(region.mask()));
    }

    // Utilization: 24 logical qubits + ≤ 2 slack each on 130 nodes.
    let resident = scheduler.stats().resident_qubits;
    assert_eq!(resident, union.count());
    let utilization = resident as f64 / 130.0;
    assert!(utilization > 0.18 && utilization < 0.30);
}

#[test]
fn sharded_results_are_deterministic_and_repeat_batches_hit_the_cache() {
    let graph = Arc::new(CouplingGraph::heavy_hex(7, 16));
    let engine_a = engine(4);
    let scheduler = RegionScheduler::with_default_config();
    let first = scheduler.schedule_batch(&engine_a, service_batch(&graph));
    assert!(first.results.iter().all(|r| !r.cached));

    // Same engine, same batch: every artifact is served from the cache,
    // bit-identically.
    let again = scheduler.schedule_batch(&engine_a, service_batch(&graph));
    assert!(again.results.iter().all(|r| r.cached));
    for (a, b) in first.results.iter().zip(&again.results) {
        assert_eq!(a.output.stats_digest(), b.output.stats_digest());
    }

    // A different engine (fresh cache, different thread count) and a fresh
    // scheduler produce bit-identical outputs on the same regions:
    // placement and compilation are deterministic.
    let other =
        RegionScheduler::with_default_config().schedule_batch(&engine(1), service_batch(&graph));
    for (a, b) in first.results.iter().zip(&other.results) {
        assert_eq!(a.output.stats_digest(), b.output.stats_digest());
        assert_eq!(a.region, b.region);
    }
}

#[test]
fn sharded_and_whole_chip_results_never_share_cache_entries() {
    let graph = Arc::new(CouplingGraph::heavy_hex(7, 16));
    let region_batch = |engine: &Engine| {
        RegionScheduler::with_default_config()
            .schedule_batch(engine, service_batch(&graph))
            .results
    };

    // Regions first: the same jobs compiled whole-chip afterwards must all
    // MISS — region entries are keyed by induced subgraphs and the
    // resident domain, never by the whole-chip job key.
    let engine_a = engine(4);
    let sharded = region_batch(&engine_a);
    assert!(sharded.iter().all(|r| r.error.is_none()));
    let whole = engine_a.compile_batch(service_batch(&graph));
    assert!(
        whole.iter().all(|r| !r.cached),
        "whole-chip compiles must not be served from region entries"
    );
    for (s, w) in sharded.iter().zip(&whole) {
        assert_ne!(s.cache_key, w.cache_key, "{}", s.name);
    }
    // A repeat whole-chip batch is now fully cached under its own keys.
    let repeat = engine_a.compile_batch(service_batch(&graph));
    assert!(repeat.iter().all(|r| r.cached));

    // Whole-chip first: a region batch afterwards must all MISS too.
    let engine_b = engine(4);
    let whole = engine_b.compile_batch(service_batch(&graph));
    assert!(whole.iter().all(|r| r.error.is_none()));
    assert!(
        region_batch(&engine_b).iter().all(|r| !r.cached),
        "region results must not be served from whole-chip entries"
    );
}
