//! Determinism regression tests for the parallel harness: the same
//! (benchmark, model, seed) cell list must produce **byte-identical**
//! persisted JSON whether it runs serially or sharded across the
//! work-stealing pool. Any shared mutable state leaking between pool
//! workers (a shared RNG, an accumulator keyed by completion order, a
//! cell reading its neighbour's supply) shows up here as a byte diff.
//!
//! CI runs this suite with the pool genuinely parallel (`--jobs 2` and
//! `--jobs 8` below both exceed one worker), so the stealing paths are
//! exercised on every push.

use ocelot_bench::artifact::Artifact;
use ocelot_bench::drivers::{self, DriverOpts};
use ocelot_bench::harness::{run_cells, CellSpec, Workload};
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::ExecBackend;
use ocelot_telemetry::json::Json;

/// A small mixed-workload cell list touching every workload kind.
fn mixed_cells() -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for bench in ["greenhouse", "photo", "tire"] {
        for model in ExecModel::all() {
            specs.push(CellSpec::new(
                bench,
                model,
                9,
                Workload::Continuous { runs: 2 },
            ));
        }
        specs.push(CellSpec::new(
            bench,
            ExecModel::Ocelot,
            9,
            Workload::Intermittent { runs: 2 },
        ));
        specs.push(CellSpec::new(
            bench,
            ExecModel::Jit,
            9,
            Workload::Pathological { runs: 2 },
        ));
        specs.push(CellSpec::new(
            bench,
            ExecModel::Jit,
            9,
            Workload::Duration { sim_us: 2_000_000 },
        ));
    }
    specs
}

#[test]
fn cell_sweeps_are_identical_at_every_worker_count() {
    let specs = mixed_cells();
    let serial = run_cells(&specs, 1);
    for jobs in [2, 8] {
        let parallel = run_cells(&specs, jobs);
        assert_eq!(serial, parallel, "--jobs {jobs} changed the stats");
    }
}

/// The acceptance check: a full driver `collect` → persisted JSON path,
/// serial vs `--jobs 8`, compared as bytes.
#[test]
fn persisted_artifacts_are_byte_identical_across_jobs() {
    // A driver with a uniform cell sweep (table2a) and one with custom
    // per-bench jobs (tics_expiry, small budget) cover both pool entry
    // points; tiny scales keep the test fast.
    for (name, runs) in [("table2a", 2), ("tics_expiry", 1)] {
        let d = drivers::by_name(name).expect("driver exists");
        let mut texts = Vec::new();
        for jobs in [1, 2, 8] {
            let opts = DriverOpts {
                jobs,
                runs: Some(runs),
                seed: None,
                backend: ExecBackend::Interp,
            };
            let artifact = (d.collect)(&opts);
            texts.push(artifact.render().expect("serializes"));
        }
        assert_eq!(texts[0], texts[1], "{name}: --jobs 2 diverged from serial");
        assert_eq!(texts[0], texts[2], "{name}: --jobs 8 diverged from serial");
        // And the artifact round-trips through its own file format.
        let back = Artifact::from_text(&texts[0]).expect("parses");
        assert_eq!(back.render().unwrap(), texts[0], "{name}: unstable bytes");
    }
}

/// `--backend compiled` artifacts are byte-identical across `--jobs
/// 1/2/8` too, and differ from the interpreter's bytes *only* in the
/// recorded backend config — the compiled engine must not leak
/// nondeterminism into results even when cells race across workers.
#[test]
fn compiled_backend_artifacts_are_byte_identical_across_jobs() {
    let d = drivers::by_name("table2a").expect("driver exists");
    let collect = |jobs, backend| {
        let opts = DriverOpts {
            jobs,
            runs: Some(2),
            seed: None,
            backend,
        };
        (d.collect)(&opts)
    };
    let mut texts = Vec::new();
    for jobs in [1, 2, 8] {
        texts.push(
            collect(jobs, ExecBackend::Compiled)
                .render()
                .expect("serializes"),
        );
    }
    assert_eq!(texts[0], texts[1], "--jobs 2 diverged from serial");
    assert_eq!(texts[0], texts[2], "--jobs 8 diverged from serial");

    let compiled = Artifact::from_text(&texts[0]).expect("parses");
    assert_eq!(
        compiled.config_get("backend").and_then(Json::as_str),
        Some("compiled"),
        "artifact records the backend that produced it"
    );
    // Same simulation results as the interpreter: only the provenance
    // entry differs.
    let interp = collect(2, ExecBackend::Interp);
    assert_eq!(
        interp.config_get("backend").and_then(Json::as_str),
        Some("interp")
    );
    assert_eq!(interp.cells, compiled.cells, "backends agree cell-for-cell");
}

/// The scenario sweep (app × scenario × seed cells, each building its
/// environment and supply from the scenario registry) must be
/// byte-identical at every worker count on *both* execution backends,
/// and the backends must agree cell-for-cell.
#[test]
fn scenario_sweep_is_byte_identical_across_jobs_and_backends() {
    let d = drivers::by_name("scenario_sweep").expect("driver exists");
    let collect = |jobs, backend| {
        let opts = DriverOpts {
            jobs,
            runs: Some(1),
            seed: None,
            backend,
        };
        (d.collect)(&opts).render().expect("serializes")
    };
    for backend in [ExecBackend::Interp, ExecBackend::Compiled] {
        let serial = collect(1, backend);
        for jobs in [2, 8] {
            assert_eq!(
                serial,
                collect(jobs, backend),
                "{}: --jobs {jobs} diverged from serial",
                backend.name()
            );
        }
    }
    let interp = Artifact::from_text(&collect(2, ExecBackend::Interp)).unwrap();
    let compiled = Artifact::from_text(&collect(2, ExecBackend::Compiled)).unwrap();
    assert_eq!(
        interp.cells, compiled.cells,
        "backends agree cell-for-cell on every scenario"
    );
}

/// `--traces` collection: the traces artifact mirrors the result
/// artifact cell-for-cell, is byte-identical across worker counts, and
/// round-trips through its own strict reader.
#[test]
fn trace_artifacts_are_deterministic_and_replayable() {
    let d = drivers::by_name("scenario_sweep").expect("driver exists");
    let traced = d.collect_traced.expect("uniform sweep supports traces");
    let collect = |jobs| {
        let opts = DriverOpts {
            jobs,
            runs: Some(1),
            seed: None,
            backend: ExecBackend::Interp,
        };
        traced(&opts)
    };
    let (a1, t1) = collect(1);
    let (a2, t2) = collect(8);
    assert_eq!(
        a1.render().unwrap(),
        a2.render().unwrap(),
        "result artifact stable across jobs"
    );
    assert_eq!(
        t1.render().unwrap(),
        t2.render().unwrap(),
        "traces artifact stable across jobs"
    );
    // The traced collection produced the same results as the plain one.
    let plain = (d.collect)(&DriverOpts {
        jobs: 2,
        runs: Some(1),
        seed: None,
        backend: ExecBackend::Interp,
    });
    assert_eq!(plain.cells, a1.cells, "tracing must not perturb results");
    // Identity parity: cell i of the traces artifact describes cell i
    // of the result artifact.
    assert_eq!(t1.driver, "scenario_sweep_traces");
    assert_eq!(t1.cells.len(), a1.cells.len());
    for (res, tr) in a1.cells.iter().zip(&t1.cells) {
        for key in ["bench", "model", "scenario"] {
            assert_eq!(res.get(key), tr.get(key), "identity member `{key}`");
        }
        assert!(tr.get("trace").is_some());
    }
    // Replay path: reload from bytes, summarize, and get event parity
    // with the stats the result artifact records.
    let reloaded = Artifact::from_text(&t1.render().unwrap()).expect("parses");
    let summary = ocelot_bench::traces::render_traces(&reloaded).expect("renders");
    assert!(summary.contains("fusion"), "{summary}");
    let mut total_reboots = 0u64;
    for cell in &reloaded.cells {
        let trace = ocelot_bench::traces::trace_from_json(cell.get("trace").unwrap()).unwrap();
        total_reboots += trace
            .iter()
            .filter(|o| matches!(o, ocelot_runtime::obs::Obs::Reboot { .. }))
            .count() as u64;
    }
    let mut stats_reboots = 0u64;
    for cell in &a1.cells {
        let s = ocelot_bench::artifact::stats_from_json(cell.get("stats").unwrap()).unwrap();
        stats_reboots += s.reboots;
    }
    assert_eq!(
        total_reboots, stats_reboots,
        "trace reboot events agree with the stats counters"
    );
}

/// Re-rendering from a reloaded artifact must equal rendering the
/// freshly collected one — the `--replay` guarantee.
#[test]
fn replay_renders_the_same_table_as_collection() {
    let d = drivers::by_name("table2a").expect("driver exists");
    let opts = DriverOpts {
        jobs: 2,
        runs: Some(2),
        seed: None,
        backend: ExecBackend::Interp,
    };
    let collected = (d.collect)(&opts);
    let direct = (d.render)(&collected).expect("renders");
    let reloaded = Artifact::from_text(&collected.render().unwrap()).expect("parses");
    let replayed = (d.render)(&reloaded).expect("renders from disk bytes");
    assert_eq!(direct, replayed);
}
