//! Quick perf profile for CI: times the sparse CSR propagation backend
//! against the dense baseline on the reference synthetic graph (writes
//! `BENCH_PR2.json`), indexed view-query answering against the naive
//! VF2 database scan (writes `BENCH_PR3.json`), and incremental view
//! maintenance against a full view recompute on the online engine
//! (writes `BENCH_PR4.json`), the concurrent serving engine —
//! pooled label-parallel `explain_all` against the sequential label
//! loop, plus reader throughput while a writer mutates (writes
//! `BENCH_PR5.json`) — and the sharded scatter-gather engine on a
//! 10^5-graph MalNet-scale database: label-filtered queries must touch
//! only the owning shard (probe-count hard check) and a 2-shard engine
//! must scale combined insert+query throughput over the 1-shard layout
//! (writes `BENCH_PR6.json`) — and the durable engine: WAL-on insert
//! throughput under `FsyncPolicy::Batch` against the in-memory engine,
//! plus bounded-time recovery (checkpoint + log replay) of the same
//! 10^5-graph database with a query-identity hard check (writes
//! `BENCH_PR7.json`).
//!
//! Usage: `bench_quick [--check] [--out-dir DIR]`
//!
//! - `--check`: once every section has run, exit 1 if any gate failed:
//!   sparse masked propagation slower than the dense baseline, indexed
//!   query answering slower than the scan, an incremental single-graph
//!   insert less than 5x faster than a full `explain_label` recompute,
//!   pooled `explain_all` under its cores-tiered speedup bar (2x with
//!   at least 4 cores), no reads served under a concurrent writer, the
//!   2-shard engine under its cores-tiered throughput bar over the
//!   1-shard engine, WAL-on insert throughput below half the in-memory
//!   rate under `FsyncPolicy::Batch`, or recovery of the 10^5-graph
//!   database over its wall-clock budget (the CI regression gates).
//!   Gates whose thresholds depend on parallelism are scaled down on
//!   narrow hosts; `--check` then prints a `GATE SCALED DOWN` note and
//!   the JSON gate carries `"scaled_for_host": true`.
//! - `--out-dir DIR`: where `BENCH_PR2.json` … `BENCH_PR7.json` go
//!   (default: the current directory).
//!
//! Every payload records the host core count under `"host"` so CI
//! artifacts from differently-sized runners are comparable.
//!
//! Before timing anything each pair of paths is cross-checked (numeric
//! parity for propagation, result identity for queries, view-shape
//! identity for incremental maintenance and label-parallel view
//! generation); a perf number for a divergent implementation would be
//! meaningless, so disagreement is a hard error (exit 2).

use gvex_baselines::GnnExplainer;
use gvex_bench::gate::{host_cores, median_ms, percentile, Gate, Report, Run};
use gvex_bench::perf::{dense_masked_epoch, reference_graph, reference_mask, sparse_masked_epoch};
use gvex_core::{query, Config, Engine, FsyncPolicy, StreamGvex, ViewQuery, ViewStore};
use gvex_data::DataConfig;
use gvex_gnn::{AdamTrainer, GcnModel, Propagation, TrainConfig};
use gvex_graph::{Graph, GraphDb, GraphId};
use gvex_pattern::Pattern;
use serde_json::json;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Reference graph size for the propagation section.
const NODES: usize = 1024;

fn main() {
    let mut run = Run::from_args();
    let cores = host_cores();

    let g = reference_graph(NODES, 42);
    let mask = reference_mask(&g, 7);
    let model = GcnModel::new(g.feature_dim(), 32, 2, 3, 1);
    let prop = Propagation::new(&g);
    let target = 0usize;
    eprintln!(
        "reference graph: {} nodes, {} edges (avg degree {:.2})",
        g.num_nodes(),
        g.num_edges(),
        g.avg_degree()
    );

    // Numerical parity first: the gate is about speed of the *same* math.
    let sp = sparse_masked_epoch(&model, &prop, &g, &mask, target);
    let dn = dense_masked_epoch(&model, &prop, &g, &mask, target);
    if (sp.loss - dn.loss).abs() > 1e-9 {
        eprintln!("FATAL: sparse/dense loss diverged: {} vs {}", sp.loss, dn.loss);
        std::process::exit(2);
    }
    let max_grad_delta =
        sp.edge_grad.iter().zip(&dn.edge_grad).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    if max_grad_delta > 1e-6 {
        eprintln!("FATAL: sparse/dense edge gradients diverged by {max_grad_delta}");
        std::process::exit(2);
    }

    let reps = 7;
    // Masked-propagation epoch (the GNNExplainer hot loop): forward +
    // mask gradient with the operator rebuilt from the mask each time.
    let epoch_dense_ms = median_ms(reps, || {
        std::hint::black_box(dense_masked_epoch(&model, &prop, &g, &mask, 0));
    });
    let epoch_sparse_ms = median_ms(reps, || {
        std::hint::black_box(sparse_masked_epoch(&model, &prop, &g, &mask, 0));
    });

    // Raw operator application: S · X, sparse kernel vs dense matmul.
    let dense_s = prop.csr().to_dense();
    let x = g.features();
    let spmm_dense_ms = median_ms(reps, || {
        std::hint::black_box(dense_s.matmul(x));
    });
    let spmm_sparse_ms = median_ms(reps, || {
        std::hint::black_box(prop.csr().spmm_dense(x));
    });

    // End-to-end explain on the 1k-node graph (sparse path only — the
    // trajectory anchor for later PRs).
    let explainer = GnnExplainer { epochs: 5, ..GnnExplainer::default() };
    let explain_ms = median_ms(3, || {
        std::hint::black_box(explainer.learn_edge_mask(&model, &g, 0));
    });

    let epoch_speedup = epoch_dense_ms / epoch_sparse_ms.max(1e-9);
    let spmm_speedup = spmm_dense_ms / spmm_sparse_ms.max(1e-9);
    eprintln!("masked epoch: dense {epoch_dense_ms:.3} ms, sparse {epoch_sparse_ms:.3} ms ({epoch_speedup:.1}x)");
    eprintln!("operator apply: dense {spmm_dense_ms:.3} ms, sparse {spmm_sparse_ms:.3} ms ({spmm_speedup:.1}x)");
    eprintln!("explain (5 epochs, sparse): {explain_ms:.3} ms");

    run.write(
        Report::new(2)
            .section(
                "graph",
                json!({
                    "nodes": g.num_nodes() as u64,
                    "edges": g.num_edges() as u64,
                    "avg_degree": g.avg_degree(),
                    "operator_nnz": prop.csr().nnz() as u64,
                }),
            )
            .section("model", json!({ "hidden": 32u32, "layers": 3u32 }))
            .section("reps", json!(reps as u64))
            .section(
                "parity",
                json!({
                    "loss_delta": (sp.loss - dn.loss).abs(),
                    "max_edge_grad_delta": max_grad_delta,
                }),
            )
            .result(json!({
                "name": "masked_propagation_epoch",
                "dense_ms": epoch_dense_ms,
                "sparse_ms": epoch_sparse_ms,
                "speedup": epoch_speedup,
            }))
            .result(json!({
                "name": "operator_apply",
                "dense_ms": spmm_dense_ms,
                "sparse_ms": spmm_sparse_ms,
                "speedup": spmm_speedup,
            }))
            .result(json!({
                "name": "gnnexplainer_learn_mask_5_epochs",
                "sparse_ms": explain_ms,
            }))
            .gate(Gate::at_least("masked_propagation_epoch.speedup", epoch_speedup, 1.0)),
    );

    // ---- indexed view-query answering vs the naive VF2 scan ----------
    //
    // Reference database: the MUT-like simulator (no training needed —
    // queries run against ground-truth labels). Probe patterns are the
    // domain motifs the paper's §1 questions are phrased over.
    let qdb = gvex_data::mutagenicity(DataConfig::new(64, 11));
    let store = ViewStore::new(&qdb);
    let probes: Vec<(&str, Pattern)> = vec![
        ("nitro_n_o", Pattern::new(&[gvex_data::TYPE_N, gvex_data::TYPE_O], &[(0, 1, 1)])),
        ("c_c_bond", Pattern::new(&[gvex_data::TYPE_C, gvex_data::TYPE_C], &[(0, 1, 0)])),
        (
            "c_chain_3",
            Pattern::new(
                &[gvex_data::TYPE_C, gvex_data::TYPE_C, gvex_data::TYPE_C],
                &[(0, 1, 0), (1, 2, 0)],
            ),
        ),
        ("single_n", Pattern::single_node(gvex_data::TYPE_N)),
        ("absent", Pattern::new(&[99, 99], &[(0, 1, 0)])),
    ];
    // Result identity first (also warms the index: each pattern class is
    // scanned exactly once, at first sight).
    for (name, p) in &probes {
        let indexed = store.hits(p, &qdb);
        let scanned = query::scan::graphs_containing(&qdb, p);
        if indexed != scanned {
            eprintln!("FATAL: indexed/scan query results diverged on {name}");
            std::process::exit(2);
        }
    }
    let query_reps = 25;
    let indexed_ms = median_ms(query_reps, || {
        for (_, p) in &probes {
            std::hint::black_box(store.hits(p, &qdb));
        }
    });
    let scan_ms = median_ms(query_reps, || {
        for (_, p) in &probes {
            std::hint::black_box(query::scan::graphs_containing(&qdb, p));
        }
    });
    let query_speedup = scan_ms / indexed_ms.max(1e-9);
    eprintln!(
        "query answering ({} probes over {} graphs): scan {scan_ms:.3} ms, indexed \
         {indexed_ms:.4} ms ({query_speedup:.0}x)",
        probes.len(),
        qdb.len()
    );

    run.write(
        Report::new(3)
            .section(
                "database",
                json!({
                    "graphs": qdb.len() as u64,
                    "total_nodes": qdb.total_nodes() as u64,
                    "total_edges": qdb.total_edges() as u64,
                }),
            )
            .section("probes", json!(probes.iter().map(|(n, _)| *n).collect::<Vec<_>>()))
            .section("reps", json!(query_reps as u64))
            .result(json!({
                "name": "view_query_graphs_containing",
                "scan_ms": scan_ms,
                "indexed_ms": indexed_ms,
                "speedup": query_speedup,
            }))
            .gate(Gate::at_least("view_query_graphs_containing.speedup", query_speedup, 1.0)),
    );

    // ---- incremental view maintenance vs full view recompute ----------
    //
    // Online-engine workload: a live stream view over a label group,
    // then single-graph arrivals. Incremental maintenance streams only
    // the delta graph and re-assembles; the baseline recomputes the
    // whole label group's view from (warm-context) scratch.
    let mut odb = gvex_data::mutagenicity(DataConfig::new(48, 17));
    let omodel = GcnModel::new(14, 16, 2, 2, 17);
    AdamTrainer::classify_all(&omodel, &mut odb, &[]);
    let label = *odb
        .labels()
        .iter()
        .max_by_key(|&&l| odb.label_group(l).len())
        .expect("non-empty database");
    let arrivals: Vec<_> = gvex_data::mutagenicity(DataConfig::new(9, 4242))
        .iter()
        .map(|(_, g)| g.clone())
        .filter(|g| omodel.predict(g) == label)
        .collect();
    // One arrival drives the shape cross-check; at least one more is
    // needed for the timing samples below.
    if arrivals.len() < 2 {
        eprintln!("FATAL: arrival pool classified away from the benchmarked label");
        std::process::exit(2);
    }
    let ocfg = Config::with_bounds(0, 6);
    let engine = Engine::builder(omodel.clone(), odb.clone())
        .config(ocfg.clone())
        .staleness_bound(usize::MAX)
        .build();
    let vid = engine.stream(label, 1.0);
    // Warm every group context so the full-recompute baseline pays no
    // context builds the incremental path is also spared.
    let group = engine.db().label_group(label);
    let warm = gvex_core::ContextCache::new(ocfg.clone());
    warm.warm(&omodel, &engine.db(), &group);

    // Shape identity first: maintained view == full streaming recompute.
    let shape = |v: &gvex_core::ExplanationView| -> Vec<(GraphId, Vec<u32>, bool, bool)> {
        v.subgraphs
            .iter()
            .map(|s| (s.graph_id, s.nodes.clone(), s.consistent, s.counterfactual))
            .collect()
    };
    let sg = StreamGvex::new(ocfg.clone());
    engine.insert_graph(arrivals[0].clone(), None);
    let maintained = engine.store().get(vid).expect("maintained view");
    let ids_now = engine.db().label_group(label);
    let full_now = sg.explain_label_cached(&omodel, &engine.db(), label, &ids_now, 1.0, &warm);
    if shape(&maintained) != shape(&full_now) {
        eprintln!("FATAL: incremental maintenance diverged from full recompute");
        std::process::exit(2);
    }

    // Timing: per-arrival incremental insert vs full recompute of the
    // label group at the same state.
    let mut incr_samples = Vec::new();
    for g in arrivals.iter().skip(1) {
        let t = Instant::now();
        std::hint::black_box(engine.insert_graph(g.clone(), None));
        incr_samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let incremental_ms = percentile(&mut incr_samples, 0.5);
    let ids_final = engine.db().label_group(label);
    warm.warm(&omodel, &engine.db(), &ids_final);
    let full_ms = median_ms(5, || {
        std::hint::black_box(sg.explain_label_cached(
            &omodel,
            &engine.db(),
            label,
            &ids_final,
            1.0,
            &warm,
        ));
    });
    let online_speedup = full_ms / incremental_ms.max(1e-9);
    eprintln!(
        "online maintenance (label {label}, group of {}): full recompute {full_ms:.2} ms, \
         incremental insert {incremental_ms:.2} ms ({online_speedup:.1}x)",
        ids_final.len()
    );

    run.write(
        Report::new(4)
            .section(
                "database",
                json!({
                    "graphs": engine.db().len() as u64,
                    "label": label as u64,
                    "label_group": ids_final.len() as u64,
                    "arrivals": arrivals.len() as u64,
                }),
            )
            .result(json!({
                "name": "incremental_insert_vs_full_recompute",
                "full_recompute_ms": full_ms,
                "incremental_insert_ms": incremental_ms,
                "speedup": online_speedup,
            }))
            .gate(Gate::at_least(
                "incremental_insert_vs_full_recompute.speedup",
                online_speedup,
                5.0,
            )),
    );

    // ---- concurrent serving: pooled label-parallel explain_all ---------
    //
    // Reference database: the 6-class ENZYMES simulator with a perfect
    // classifier stand-in (predicted := truth), so all six label groups
    // are balanced and the fan-out has work to distribute. The baseline
    // is the genuinely sequential loop — a 1-thread engine pool makes
    // `explain_all` visit label groups, graphs, and `psum` candidates
    // one at a time — against the engine-owned pool at hardware width.
    let cdb = {
        let mut db = gvex_data::enzymes(DataConfig::new(36, 13));
        let ids: Vec<GraphId> = db.iter().map(|(id, _)| id).collect();
        for id in ids {
            let truth = db.truth(id);
            db.set_predicted(id, truth);
        }
        db
    };
    let feature_dim = cdb.iter().next().map(|(_, g)| g.feature_dim()).unwrap_or(1);
    let cmodel = GcnModel::new(feature_dim, 16, 6, 2, 7);
    let ccfg = Config::with_bounds(0, 5);
    let num_labels = cdb.labels().len();

    let shape_of = |v: &gvex_core::ExplanationView| -> Vec<(GraphId, Vec<u32>)> {
        v.subgraphs.iter().map(|s| (s.graph_id, s.nodes.clone())).collect()
    };
    // Shape identity first: pooled label fan-out == sequential loop.
    {
        let par = Engine::builder(cmodel.clone(), cdb.clone()).config(ccfg.clone()).build();
        let seq =
            Engine::builder(cmodel.clone(), cdb.clone()).config(ccfg.clone()).threads(1).build();
        let pv = par.explain_all();
        let sv = seq.explain_all();
        let pshapes: Vec<_> =
            pv.iter().map(|&v| shape_of(&par.view(v).expect("view just generated"))).collect();
        let sshapes: Vec<_> =
            sv.iter().map(|&v| shape_of(&seq.view(v).expect("view just generated"))).collect();
        if pshapes != sshapes {
            eprintln!("FATAL: label-parallel explain_all diverged from the sequential loop");
            std::process::exit(2);
        }
    }
    // Timing: fresh engine per sample (the store's pattern index memoizes
    // across runs, which would flatter later samples); contexts are
    // warmed outside the timed region in both configurations.
    let time_explain_all = |threads: usize| -> f64 {
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let engine = Engine::builder(cmodel.clone(), cdb.clone())
                    .config(ccfg.clone())
                    .threads(threads)
                    .build();
                let ids: Vec<GraphId> = engine.db().iter().map(|(id, _)| id).collect();
                engine.contexts().warm(&cmodel, &engine.db(), &ids);
                let t = Instant::now();
                std::hint::black_box(engine.explain_all());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        percentile(&mut samples, 0.5)
    };
    let seq_ms = time_explain_all(1);
    let par_ms = time_explain_all(0);
    let concurrent_speedup = seq_ms / par_ms.max(1e-9);
    eprintln!(
        "concurrent explain_all ({num_labels} label groups, {} graphs, {cores} cores): \
         sequential {seq_ms:.1} ms, pooled {par_ms:.1} ms ({concurrent_speedup:.2}x)",
        cdb.len()
    );

    // Reader throughput while a writer inserts + maintains: N reader
    // threads issue head queries and snapshots against a shared engine
    // for the whole lifetime of a writer performing batch inserts with
    // incremental per-label view maintenance.
    let engine =
        Arc::new(Engine::builder(cmodel.clone(), cdb.clone()).config(ccfg.clone()).build());
    engine.explain_all();
    let writer_done = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicUsize::new(0));
    let reader_threads = 2usize;
    let readers: Vec<_> = (0..reader_threads)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let writer_done = Arc::clone(&writer_done);
            let served = Arc::clone(&served);
            std::thread::spawn(move || {
                while !writer_done.load(Ordering::Relaxed) {
                    let r = engine.query(&gvex_core::ViewQuery::new());
                    std::hint::black_box(r.len());
                    let snap = engine.snapshot();
                    std::hint::black_box(snap.len());
                    // Count a round only if the writer is still running:
                    // a read that merely completed after the writer
                    // finished proves nothing about overlap, and the
                    // gate below is specifically about reads served
                    // *while* the writer mutates.
                    if !writer_done.load(Ordering::Relaxed) {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    let arrivals: Vec<_> = gvex_data::enzymes(DataConfig::new(6, 4243))
        .iter()
        .map(|(id, g)| (g.clone(), id))
        .collect();
    let writer_t = Instant::now();
    let mut writer_batches = 0usize;
    let mut inserted: Vec<GraphId> = Vec::new();
    for (g, _) in &arrivals {
        let (ids, _) = engine.insert_graphs(vec![(g.clone(), None)]);
        inserted.extend(ids);
        writer_batches += 1;
    }
    engine.remove_graphs(&inserted);
    let writer_ms = writer_t.elapsed().as_secs_f64() * 1e3;
    writer_done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader thread");
    }
    let reads_served = served.load(Ordering::Relaxed);
    eprintln!(
        "reader throughput under writer: {reads_served} query+snapshot rounds across \
         {reader_threads} readers during {writer_batches} writer batches ({writer_ms:.0} ms)"
    );

    // The speedup a machine can deliver is bounded by its cores; the 2x
    // bar is enforced where CI runs (>= 4 cores) and scaled down on
    // narrower machines so the gate measures the code, not the host.
    run.write(
        Report::new(5)
            .section(
                "database",
                json!({
                    "graphs": cdb.len() as u64,
                    "label_groups": num_labels as u64,
                    "cores": cores as u64,
                }),
            )
            .result(json!({
                "name": "label_parallel_explain_all",
                "sequential_ms": seq_ms,
                "pooled_ms": par_ms,
                "speedup": concurrent_speedup,
            }))
            .result(json!({
                "name": "reader_throughput_under_writer",
                "reader_threads": reader_threads as u64,
                "reads_served": reads_served as u64,
                "writer_batches": writer_batches as u64,
                "writer_ms": writer_ms,
            }))
            .gate(Gate::at_least_for_cores(
                "label_parallel_explain_all.speedup",
                concurrent_speedup,
                cores,
                [2.0, 1.2, 0.0],
            ))
            .gate(Gate::at_least(
                "reader_throughput_under_writer.reads_served",
                reads_served as f64,
                1.0,
            )),
    );

    // ---- sharded scatter-gather engine --------------------------------
    //
    // MalNet-scale database: 10^5 tiny call graphs across 5 families,
    // with predicted := truth so the label-partitioned shard layout is
    // exact. Two checks: (a) a label-filtered ViewQuery on the 2-shard
    // engine touches exactly its owning shard — the probe counter is a
    // hard check, since shard routing is a correctness property, not a
    // perf number — and (b) the same fixed insert+query workload
    // finishes faster on the 2-shard engine when the host has cores to
    // run independent shard writers in parallel.
    let scale_graphs = 100_000usize;
    let gen_t = Instant::now();
    let sdb = {
        let mut db = gvex_data::malnet_scale(scale_graphs, 23);
        let ids: Vec<GraphId> = db.iter().map(|(id, _)| id).collect();
        for id in ids {
            let truth = db.truth(id);
            db.set_predicted(id, truth);
        }
        db
    };
    let generate_ms = gen_t.elapsed().as_secs_f64() * 1e3;
    // A tiny classifier trained on a slice of the database: arrivals are
    // routed by *predicted* family, so the model must discriminate at
    // least coarsely for the multi-writer streams below to land on
    // distinct shards (an untrained model maps every call graph to one
    // family and the 2-shard engine would degenerate to one writer).
    let sfeat = sdb.iter().next().map(|(_, g)| g.feature_dim()).unwrap_or(1);
    let smodel = {
        let mut m = GcnModel::new(sfeat, 8, 5, 2, 23);
        let train_ids: Vec<GraphId> = sdb.iter().map(|(id, _)| id).take(200).collect();
        let tcfg = TrainConfig { epochs: 30, target_accuracy: 0.9, ..TrainConfig::default() };
        let report = AdamTrainer::new(&m, tcfg).fit(&mut m, &sdb, &train_ids);
        eprintln!(
            "sharded routing model: {} train epochs, accuracy {:.2}",
            report.epochs_run, report.train_accuracy
        );
        m
    };
    let scfg = Config::with_bounds(0, 4);
    let build_sharded = |shards: usize| -> (Engine, f64) {
        let t = Instant::now();
        let e = Engine::builder(smodel.clone(), sdb.clone())
            .config(scfg.clone())
            .shards(shards)
            .build();
        (e, t.elapsed().as_secs_f64() * 1e3)
    };
    let (se1, build1_ms) = build_sharded(1);
    let (se2, build2_ms) = build_sharded(2);
    eprintln!(
        "sharded engine: {scale_graphs} graphs generated in {generate_ms:.0} ms, \
         build 1-shard {build1_ms:.0} ms, 2-shard {build2_ms:.0} ms"
    );

    // Probe patterns are two of the planted family motifs; under
    // label % 2 routing the family-1 ring lives in shard 1 and the
    // family-2 clique in shard 0, so the query stream below exercises
    // both shards.
    let ring6 = Pattern::new(
        &[0, 0, 0, 0, 0, 0],
        &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 0, 0)],
    );
    let clique5 = Pattern::new(
        &[0, 0, 0, 0, 0],
        &[
            (0, 1, 0),
            (0, 2, 0),
            (0, 3, 0),
            (0, 4, 0),
            (1, 2, 0),
            (1, 3, 0),
            (1, 4, 0),
            (2, 3, 0),
            (2, 4, 0),
            (3, 4, 0),
        ],
    );
    let sprobes: Vec<(&str, Pattern, u16)> =
        vec![("family1_ring6", ring6.clone(), 1), ("family2_clique5", clique5.clone(), 2)];
    // Result identity first (also warms each engine's pattern indexes):
    // graph ids live in different shard id spaces, so the sharded and
    // unsharded answers are compared by count and label histogram.
    for (name, p, l) in &sprobes {
        let q = ViewQuery::pattern(p.clone()).label(*l);
        let r1 = se1.query(&q);
        let r2 = se2.query(&q);
        if r1.len() != r2.len() || r1.per_label != r2.per_label {
            eprintln!("FATAL: 2-shard query diverged from 1-shard on {name}");
            std::process::exit(2);
        }
        if r1.is_empty() {
            eprintln!("FATAL: probe {name} matched nothing — motif generator broken");
            std::process::exit(2);
        }
    }
    // Probe-count hard check: label-filtered queries touch exactly the
    // owning shard; unconstrained queries fan out to every shard.
    let q_ring = ViewQuery::pattern(ring6.clone()).label(1);
    let probes_before = se2.shard_probes();
    std::hint::black_box(se2.query(&q_ring));
    let shards_touched = se2.shard_probes() - probes_before;
    if shards_touched != 1 {
        eprintln!(
            "FATAL: label-filtered query touched {shards_touched} of {} shards (expected 1)",
            se2.num_shards()
        );
        std::process::exit(2);
    }
    let probes_before = se2.shard_probes();
    std::hint::black_box(se2.query(&ViewQuery::new()));
    let shards_fanout = se2.shard_probes() - probes_before;
    if shards_fanout != se2.num_shards() as u64 {
        eprintln!(
            "FATAL: unconstrained query touched {shards_fanout} of {} shards",
            se2.num_shards()
        );
        std::process::exit(2);
    }
    let label_query_ms = median_ms(9, || {
        std::hint::black_box(se2.query(&q_ring));
    });
    eprintln!(
        "label-filtered query on {scale_graphs} graphs: {label_query_ms:.2} ms, \
         {shards_touched}/{} shards touched",
        se2.num_shards()
    );

    // Fixed insert+query workload, identical on both engines. The
    // arrival pool is pre-binned by the router's decision (predicted
    // family mod 2), so each writer thread's stream lands wholly in one
    // shard of the 2-shard engine and the two writers commit in
    // parallel; on the 1-shard engine the same two streams serialize on
    // the single shard writer. Reader threads issue label-filtered
    // motif queries against both shards throughout.
    let pool: Vec<Graph> =
        gvex_data::malnet_scale(1_200, 777).iter().map(|(_, g)| g.clone()).collect();
    let mut bins: Vec<Vec<Graph>> = vec![Vec::new(), Vec::new()];
    for g in pool {
        let shard = (smodel.predict(&g) as usize) % 2;
        bins[shard].push(g);
    }
    let per_writer = bins[0].len().min(bins[1].len());
    if per_writer < 50 {
        eprintln!(
            "FATAL: arrival pool routed too one-sidedly ({} vs {} graphs per shard)",
            bins[0].len(),
            bins[1].len()
        );
        std::process::exit(2);
    }
    for bin in &mut bins {
        bin.truncate(per_writer);
    }
    let queries_per_reader = 200usize;
    let run_mixed = |engine: &Engine| -> f64 {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for bin in &bins {
                scope.spawn(move || {
                    for chunk in bin.chunks(25) {
                        let batch: Vec<_> = chunk.iter().map(|g| (g.clone(), None)).collect();
                        std::hint::black_box(engine.insert_graphs(batch));
                    }
                });
            }
            for _ in 0..2 {
                let probes = &sprobes;
                scope.spawn(move || {
                    for i in 0..queries_per_reader {
                        let (_, p, l) = &probes[i % probes.len()];
                        std::hint::black_box(
                            engine.query(&ViewQuery::pattern(p.clone()).label(*l)),
                        );
                    }
                });
            }
        });
        t.elapsed().as_secs_f64()
    };
    let mixed_ops = 2 * per_writer + 2 * queries_per_reader;
    let wall_1shard_s = run_mixed(&se1);
    let wall_2shard_s = run_mixed(&se2);
    let tput_1shard = mixed_ops as f64 / wall_1shard_s.max(1e-9);
    let tput_2shard = mixed_ops as f64 / wall_2shard_s.max(1e-9);
    let shard_scaling = tput_2shard / tput_1shard.max(1e-9);
    eprintln!(
        "sharded insert+query ({mixed_ops} ops, {cores} cores): 1-shard {tput_1shard:.0} ops/s, \
         2-shard {tput_2shard:.0} ops/s ({shard_scaling:.2}x)"
    );

    // 1.3x where there are cores for the shard writers to actually run
    // in parallel; parity on 2-3 cores; on a single core the layouts do
    // the same work serially (shard-local indexes still shrink the
    // per-arrival match work, so warm runs beat parity), and the bar
    // only guards against sharding overhead regressions, with headroom
    // for cold-cache first runs.
    run.write(
        Report::new(6)
            .section(
                "database",
                json!({
                    "graphs": scale_graphs as u64,
                    "classes": 5u64,
                    "generate_ms": generate_ms,
                    "build_1shard_ms": build1_ms,
                    "build_2shard_ms": build2_ms,
                }),
            )
            .result(json!({
                "name": "label_query_shard_probes",
                "shards": se2.num_shards() as u64,
                "shards_touched_label_query": shards_touched,
                "shards_touched_unconstrained": shards_fanout,
                "label_query_ms": label_query_ms,
            }))
            .result(json!({
                "name": "sharded_insert_query_throughput",
                "writer_threads": 2u64,
                "reader_threads": 2u64,
                "inserts": (2 * per_writer) as u64,
                "queries": (2 * queries_per_reader) as u64,
                "wall_1shard_s": wall_1shard_s,
                "wall_2shard_s": wall_2shard_s,
                "throughput_1shard_ops_s": tput_1shard,
                "throughput_2shard_ops_s": tput_2shard,
                "scaling": shard_scaling,
            }))
            .gate(
                Gate::at_least(
                    "label_query_shard_probes.shards_touched",
                    shards_touched as f64,
                    1.0,
                )
                .and(shards_touched == 1),
            )
            .gate(Gate::at_least_for_cores(
                "sharded_insert_query_throughput.scaling",
                shard_scaling,
                cores,
                [1.3, 1.0, 0.85],
            )),
    );

    // ---- durable engine: WAL throughput + recovery --------------------
    //
    // Two costs of durability, measured separately. (a) Steady-state:
    // the same insert workload against an in-memory engine and a
    // durable one under the default group-commit fsync policy — the WAL
    // must not halve throughput. (b) Restart: the 10^5-graph database
    // above is checkpointed once at attach; recovery (newest checkpoint
    // + per-shard log replay) must come back within a wall-clock budget
    // and, as a hard check, answer the motif probe identically to the
    // pre-crash engine.
    let dur_root = std::env::temp_dir().join(format!("gvex_bench_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dur_root);
    std::fs::create_dir_all(&dur_root).expect("create durability scratch dir");

    let dseed = {
        let mut db = gvex_data::malnet_scale(500, 31);
        let ids: Vec<GraphId> = db.iter().map(|(id, _)| id).collect();
        for id in ids {
            let truth = db.truth(id);
            db.set_predicted(id, truth);
        }
        db
    };
    let dpool: Vec<Graph> =
        gvex_data::malnet_scale(400, 555).iter().map(|(_, g)| g.clone()).collect();
    let run_inserts = |engine: &Engine| -> f64 {
        let t = Instant::now();
        for chunk in dpool.chunks(25) {
            let batch: Vec<_> = chunk.iter().map(|g| (g.clone(), None)).collect();
            std::hint::black_box(engine.insert_graphs(batch));
        }
        t.elapsed().as_secs_f64()
    };
    let mem_engine = Engine::builder(smodel.clone(), dseed.clone()).config(scfg.clone()).build();
    let mem_insert_s = run_inserts(&mem_engine);
    drop(mem_engine);
    let tput_dir = dur_root.join("wal_tput");
    let wal_engine = Engine::builder(smodel.clone(), dseed.clone())
        .config(scfg.clone())
        .durable(&tput_dir)
        .fsync(FsyncPolicy::Batch)
        .build();
    let wal_insert_s = run_inserts(&wal_engine);
    drop(wal_engine);
    let mem_ops_s = dpool.len() as f64 / mem_insert_s.max(1e-9);
    let wal_ops_s = dpool.len() as f64 / wal_insert_s.max(1e-9);
    let wal_ratio = wal_ops_s / mem_ops_s.max(1e-9);
    eprintln!(
        "durable inserts ({} graphs, fsync=batch): in-memory {mem_ops_s:.0} ops/s, \
         WAL-on {wal_ops_s:.0} ops/s ({wal_ratio:.2}x)",
        dpool.len()
    );

    // Restart path: attaching durability to the populated engine writes
    // the initial checkpoint image of all 10^5 graphs; a handful of
    // logged batches afterwards leaves a non-trivial WAL tail for
    // recovery to replay through the incremental-maintenance path.
    let rec_dir = dur_root.join("recovery");
    let t = Instant::now();
    let big = Engine::builder(smodel.clone(), sdb.clone())
        .config(scfg.clone())
        .durable(&rec_dir)
        .fsync(FsyncPolicy::Batch)
        .build();
    let durable_build_ms = t.elapsed().as_secs_f64() * 1e3;
    // The checkpoint cost is the durable build minus what the plain
    // 1-shard build of the same database cost above.
    let checkpoint_ms = (durable_build_ms - build1_ms).max(0.0);
    for chunk in dpool.chunks(50).take(4) {
        let batch: Vec<_> = chunk.iter().map(|g| (g.clone(), None)).collect();
        std::hint::black_box(big.insert_graphs(batch));
    }
    let logged_ops = big.durable_ops().unwrap_or(0);
    let pre = big.query(&q_ring);
    let (pre_len, pre_hist) = (pre.len(), pre.per_label.clone());
    drop(big);
    let t = Instant::now();
    let recovered = Engine::builder(smodel.clone(), GraphDb::new())
        .config(scfg.clone())
        .durable(&rec_dir)
        .fsync(FsyncPolicy::Batch)
        .build();
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let report_replayed = recovered.recovery_report().map(|r| r.ops_replayed).unwrap_or(0);
    let post = recovered.query(&q_ring);
    if post.len() != pre_len || post.per_label != pre_hist {
        eprintln!(
            "FATAL: recovered engine diverged on the motif probe \
             ({} matches vs {} before the restart)",
            post.len(),
            pre_len
        );
        std::process::exit(2);
    }
    if recovered.recovery_report().is_none() {
        eprintln!("FATAL: rebuilt engine reports no recovery — checkpoint was not read");
        std::process::exit(2);
    }
    drop(recovered);
    eprintln!(
        "durable recovery of {scale_graphs} graphs: checkpoint ~{checkpoint_ms:.0} ms, \
         {logged_ops} logged ops ({report_replayed} replayed), recovery {recovery_ms:.2} ms"
    );
    let _ = std::fs::remove_dir_all(&dur_root);

    // The throughput bar tolerates the fsync cost of group commit but
    // not a collapse; the recovery bar is generous wall-clock (the CI
    // runner reloads a ~10^5-graph image).
    run.write(
        Report::new(7)
            .section(
                "database",
                json!({
                    "graphs": scale_graphs as u64,
                    "throughput_seed_graphs": 500u64,
                    "throughput_inserts": dpool.len() as u64,
                    "fsync": "batch",
                }),
            )
            .result(json!({
                "name": "durable_insert_throughput",
                "inmem_ops_s": mem_ops_s,
                "wal_ops_s": wal_ops_s,
                "ratio": wal_ratio,
            }))
            .result(json!({
                "name": "durable_recovery",
                "checkpoint_ms": checkpoint_ms,
                "logged_ops": logged_ops,
                "ops_replayed": report_replayed,
                "recovery_ms": recovery_ms,
            }))
            .gate(Gate::at_least("durable_insert_throughput.ratio", wal_ratio, 0.5))
            .gate(Gate::at_most("durable_recovery.recovery_ms", recovery_ms, 180_000.0)),
    );
    run.finish();
}
