//! The `run`/`sweep` default engine answers the oracle's bytes.
//!
//! A request that names no `backend` simulates on the compiled engine.
//! These tests hold that choice invisible on the wire: for the nine
//! apps under every registered scenario, and for generated programs
//! under two, the default answer renders byte for byte like the
//! interpreter's (`"backend": "interp"`, the semantics oracle) and like
//! the compiled engine's when named explicitly.

use ocelot_bench::genprog::SourceGen;
use ocelot_runtime::machine::{DeviceState, Machine, RunOutcome};
use ocelot_serve::{handle_request, ServerState};
use ocelot_telemetry::json::Json;

/// Complete runs per cell: enough to cross reboots on the harvested
/// scenarios, small enough to keep the suite under a second.
const RUNS: u64 = 2;

/// The engine members every cell is asked under: none (the default),
/// the oracle, and the compiled engine named explicitly.
fn engines() -> [Vec<(&'static str, Json)>; 3] {
    [
        vec![],
        vec![("backend", Json::str("interp"))],
        vec![("backend", Json::str("compiled"))],
    ]
}

fn answer(state: &mut ServerState, req: &Json) -> Json {
    let (resp, _) = handle_request(state, req);
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{req:?} -> {resp:?}"
    );
    resp
}

fn submit(state: &mut ServerState, src: &str) -> u64 {
    let resp = answer(
        state,
        &Json::obj(vec![
            ("op", Json::str("submit")),
            ("source", Json::str(src)),
        ]),
    );
    resp.get("program").and_then(Json::as_u64).expect("hash")
}

fn instructions(stats: &Json) -> u64 {
    stats
        .get("instructions")
        .and_then(Json::as_u64)
        .expect("stats carry an instruction count")
}

/// `run` `program` under `scenario` once per engine and returns the
/// rendered answers, checking each simulated something.
fn run_lines(
    state: &mut ServerState,
    program: u64,
    scenario: &str,
    seed: Option<u64>,
) -> Vec<String> {
    engines()
        .into_iter()
        .map(|engine| {
            let mut members = vec![
                ("op", Json::str("run")),
                ("program", Json::u64(program)),
                ("scenario", Json::str(scenario)),
                ("runs", Json::u64(RUNS)),
            ];
            if let Some(s) = seed {
                members.push(("seed", Json::u64(s)));
            }
            members.extend(engine);
            let resp = answer(state, &Json::obj(members));
            let stats = resp.get("stats").expect("run answers stats");
            assert!(instructions(stats) > 0, "{scenario}: nothing ran: {resp:?}");
            resp.render_compact().unwrap()
        })
        .collect()
}

/// `sweep` `program` over `scenarios` with no backend and with the
/// oracle, returning both rendered answers.
fn sweep_lines(state: &mut ServerState, program: u64, scenarios: &[&str]) -> [String; 2] {
    let [default, interp, _] = engines();
    let sweep = |state: &mut ServerState, engine: Vec<(&'static str, Json)>| {
        let mut members = vec![
            ("op", Json::str("sweep")),
            ("program", Json::u64(program)),
            (
                "scenarios",
                Json::Arr(scenarios.iter().map(|s| Json::str(s)).collect()),
            ),
            ("runs", Json::u64(RUNS)),
        ];
        members.extend(engine);
        let resp = answer(state, &Json::obj(members));
        let cells = resp.get("cells").and_then(Json::as_arr).expect("cells");
        assert_eq!(cells.len(), scenarios.len());
        resp.render_compact().unwrap()
    };
    [sweep(state, default), sweep(state, interp)]
}

fn assert_all_equal(lines: &[String], what: &str) {
    for line in &lines[1..] {
        assert_eq!(&lines[0], line, "{what}: engines answer differently");
    }
}

#[test]
fn apps_answer_identically_on_every_engine_under_every_scenario() {
    let scenarios: Vec<&str> = ocelot_scenario::registry::all()
        .iter()
        .map(|sc| sc.name)
        .collect();
    let mut state = ServerState::new(2, 16);
    let apps = ocelot_apps::all_with_extensions();
    assert_eq!(apps.len(), 9);
    for app in &apps {
        let program = submit(&mut state, app.annotated_src);
        for scenario in &scenarios {
            for seed in [None, Some(7)] {
                let lines = run_lines(&mut state, program, scenario, seed);
                assert_all_equal(&lines, &format!("{} on {scenario} seed {seed:?}", app.name));
            }
        }
        let lines = sweep_lines(&mut state, program, &scenarios);
        assert_all_equal(&lines, &format!("{} sweep", app.name));
    }
}

/// Step budget for [`completes`]'s probe: ample for every run that
/// finishes, far below the protocol's 5M-step cap.
const PROBE_STEPS: u64 = 20_000;

/// Whether each of a cell's runs finishes within [`PROBE_STEPS`] on the
/// interpreter, probed in-process on the server's own cached core. A
/// program whose region keeps re-executing spins every run to the
/// protocol's step cap, seconds per cell, so the test skips it (6 of the
/// first 56 seeds).
fn completes(state: &mut ServerState, program: u64, scenario: &str, seed: u64) -> bool {
    let sc = ocelot_scenario::parse(scenario).unwrap().reseeded(seed);
    let core = state.cache.core(program, &sc).unwrap();
    let mut m = Machine::from_core(core, DeviceState::default(), sc.environment(), sc.supply());
    (0..RUNS).all(|_| matches!(m.run_once(PROBE_STEPS), RunOutcome::Completed { .. }))
}

#[test]
fn generated_programs_answer_identically_on_every_engine() {
    const PROGRAMS: usize = 50;
    const SCENARIOS: [&str; 2] = ["rf-lab", "rf-noisy"];
    let mut state = ServerState::new(2, 128);
    let mut checked = 0;
    for seed in 1.. {
        if checked == PROGRAMS {
            break;
        }
        let src = SourceGen::generate(seed);
        let program = submit(&mut state, &src);
        if !SCENARIOS
            .iter()
            .all(|sc| completes(&mut state, program, sc, seed))
        {
            continue;
        }
        checked += 1;
        for scenario in SCENARIOS {
            let lines = run_lines(&mut state, program, scenario, Some(seed));
            assert_all_equal(&lines, &format!("seed {seed} on {scenario}\n{src}"));
        }
        let lines = sweep_lines(&mut state, program, &SCENARIOS);
        assert_all_equal(&lines, &format!("seed {seed} sweep\n{src}"));
    }
}
