//! Snapshot-style tests pinning Algorithm 1's placement decisions on the
//! benchmark applications: which function hosts each region, what each
//! region's ω contains, and ordering relative to the operations it must
//! enclose. Guards against regressions in candidate selection, hoisting,
//! dominator placement, and truncation.

use ocelot::ir::{Op, Program};
use ocelot::prelude::*;

struct Placement {
    host: String,
    omega: Vec<String>,
}

fn placements(name: &str) -> (Compiled, Vec<Placement>) {
    let b = ocelot::apps::by_name(name).unwrap();
    let c = ocelot_transform(b.annotated()).unwrap();
    let mut out = Vec::new();
    for rid in c.policy_map.keys() {
        let info = c.region(*rid).unwrap();
        out.push(Placement {
            host: c.program.func(info.func).name.clone(),
            omega: info.effects.omega().into_iter().collect(),
        });
    }
    (c, out)
}

/// Ordered op labels of `main` as rendered strings (for position
/// assertions).
fn main_ops(p: &Program) -> Vec<String> {
    let f = p.func(p.main);
    let mut out = Vec::new();
    for b in &f.blocks {
        for i in &b.instrs {
            out.push(ocelot::ir::print::op_to_string(p, &i.op));
        }
    }
    out
}

fn pos(ops: &[String], needle: &str) -> usize {
    ops.iter()
        .position(|o| o.contains(needle))
        .unwrap_or_else(|| panic!("`{needle}` not found in {ops:#?}"))
}

#[test]
fn photo_region_wraps_the_read_call_in_main() {
    let (c, pl) = placements("photo");
    assert_eq!(pl.len(), 1);
    assert_eq!(pl[0].host, "main");
    assert!(pl[0].omega.is_empty(), "reads touch no non-volatile state");
    let ops = main_ops(&c.program);
    let start = pos(&ops, "startatom(r1)");
    let call = pos(&ops, "read5()");
    assert!(start < call, "region opens before the sampling call");
}

#[test]
fn cem_region_is_minimal_and_clean() {
    let (c, pl) = placements("cem");
    assert_eq!(pl.len(), 1);
    assert_eq!(pl[0].host, "main");
    assert!(
        !pl[0].omega.contains(&"dict".to_string()),
        "the dictionary stays outside the fresh region"
    );
    assert!(
        !pl[0].omega.contains(&"logbuf".to_string()),
        "the log stays outside the fresh region"
    );
    let ops = main_ops(&c.program);
    // The region must close before the dictionary scan's call.
    let end = pos(&ops, "endatom(r1)");
    let find_call = pos(&ops, "find(");
    assert!(end < find_call, "smallest region: the scan is outside");
}

#[test]
fn greenhouse_region_spans_all_four_collections() {
    let (c, pl) = placements("greenhouse");
    assert_eq!(pl.len(), 1);
    assert_eq!(pl[0].host, "main");
    let ops = main_ops(&c.program);
    let start = pos(&ops, "startatom(r1)");
    let end = pos(&ops, "endatom(r1)");
    for call in [
        "read_temp_a()",
        "read_temp_b()",
        "read_hum_a()",
        "read_hum_b()",
    ] {
        let p = pos(&ops, call);
        assert!(start < p && p < end, "{call} inside the consistent region");
    }
    // The misting decision is *outside*: consistency constrains only the
    // collections (§4.3).
    let log = pos(&ops, "tlog[");
    assert!(end < log);
}

#[test]
fn activity_fresh_and_consistent_regions_overlap() {
    let (c, pl) = placements("activity");
    assert_eq!(pl.len(), 2);
    assert!(pl.iter().all(|p| p.host == "main"));
    let ops = main_ops(&c.program);
    // Both regions open before the first accel read and the fresh one
    // closes after the classification's last use (the counter branch
    // join) — i.e. they nest/overlap rather than sit apart.
    let first_read = pos(&ops, "read_accel()");
    let starts: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.starts_with("startatom"))
        .map(|(i, _)| i)
        .collect();
    // UART guard + 2 inferred = 3 region starts in main.
    assert_eq!(starts.len(), 3);
    let inferred_starts: Vec<usize> = starts.iter().copied().filter(|i| *i < first_read).collect();
    assert_eq!(
        inferred_starts.len(),
        2,
        "both inferred regions open before the first collection"
    );
}

#[test]
fn tire_slow_path_region_covers_both_collections() {
    let (c, pl) = placements("tire");
    assert_eq!(pl.len(), 4, "2 fresh + 2 consistent policies");
    assert!(pl.iter().all(|p| p.host == "main"));
    let ops = main_ops(&c.program);
    // The slow-path consistent pair (second read_pres + read_temp) sits
    // inside one region.
    let tp = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.contains("read_pres()"))
        .map(|(i, _)| i)
        .nth(1)
        .expect("second pressure read");
    let tt = pos(&ops, "read_temp()");
    let enclosing_start = ops[..tp]
        .iter()
        .rposition(|o| o.starts_with("startatom"))
        .expect("a region opens before tp");
    let enclosing_end = ops[tt..]
        .iter()
        .position(|o| o.starts_with("endatom"))
        .map(|i| i + tt)
        .expect("a region closes after tt");
    assert!(enclosing_start < tp && tt < enclosing_end);
}

#[test]
fn send_photo_region_covers_conditional_send() {
    // The radio send sits in a nested branch arm, so textual block order
    // says nothing; ask the region's coverage set directly.
    let (c, pl) = placements("send_photo");
    assert_eq!(pl.len(), 1);
    let rid = *c.policy_map.keys().next().unwrap();
    let info = c.region(rid).unwrap();
    let covered = ocelot::core::region::covered_refs(&c.program, info);
    let f = c.program.func(c.program.main);
    let mut found_send = false;
    let mut found_read_call = false;
    for (_, inst) in f.iter_insts() {
        let r = ocelot::ir::InstrRef {
            func: f.id,
            label: inst.label,
        };
        match &inst.op {
            Op::Output { channel, .. } if channel == "radio" => {
                found_send = true;
                assert!(covered.contains(&r), "radio send inside the region");
            }
            Op::Call { callee, .. } if c.program.func(*callee).name == "read_photo" => {
                found_read_call = true;
                assert!(covered.contains(&r), "photo read inside the region");
            }
            _ => {}
        }
    }
    assert!(found_send && found_read_call);
}

/// The inferred placement is deterministic: two independent transforms
/// produce identical programs.
#[test]
fn inference_is_deterministic() {
    for b in ocelot::apps::all() {
        let a = ocelot_transform(b.annotated()).unwrap();
        let c = ocelot_transform(b.annotated()).unwrap();
        assert_eq!(
            ocelot::ir::print::program_to_string(&a.program),
            ocelot::ir::print::program_to_string(&c.program),
            "{}",
            b.name
        );
    }
}

/// A policy whose operations sit inside an *unbounded* `while` loop is
/// widened to enclose the whole loop, and the resulting program stays
/// correct under pathological failures.
#[test]
fn while_loop_policy_widens_to_whole_loop() {
    let src = r#"
        sensor s;
        nv go = 3;
        fn main() {
            while go > 0 {
                let x = in(s);
                fresh(x);
                out(alarm, x);
                go = go - 1;
            }
        }
    "#;
    let c = ocelot_transform(compile(src).unwrap()).unwrap();
    assert!(c.check.passes());
    assert_eq!(c.regions.len(), 1);
    // The region must enclose the loop's input and use on every
    // iteration: run with pathological injection and observe zero
    // violations with a rollback.
    let targets = pathological_targets(&c.policies);
    let mut m = Machine::new(
        &c.program,
        &c.regions,
        c.policies.clone(),
        Environment::new().with("s", Signal::Constant(9)),
        CostModel::default(),
        Box::new(ContinuousPower),
    )
    .with_injector(targets);
    let out = m.run_once(1_000_000);
    assert!(
        matches!(out, RunOutcome::Completed { violated: false }),
        "{out:?}"
    );
    assert!(m.stats().region_reexecs >= 1);
}

/// The forward-progress analysis refuses to bound a `while` region
/// instead of guessing.
#[test]
fn while_region_is_reported_unbounded() {
    let src = r#"
        sensor s;
        nv go = 3;
        fn main() {
            atomic {
                while go > 0 { let x = in(s); go = go - 1; }
            }
        }
    "#;
    let built = build(compile(src).unwrap(), ExecModel::AtomicsOnly).unwrap();
    let err = ocelot::progress::ProgressReport::analyze(
        &built.program,
        &built.regions,
        &CostModel::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, ocelot::progress::ProgressError::UnboundedLoop { .. }),
        "{err}"
    );
}

/// Region ids in the transformed apps never collide with manual ones.
#[test]
fn region_ids_are_globally_unique() {
    for b in ocelot::apps::all() {
        let c = ocelot_transform(b.annotated()).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for f in &c.program.funcs {
            for (_, inst) in f.iter_insts() {
                if let Op::AtomStart { region } = inst.op {
                    assert!(seen.insert(region), "{}: duplicate {region:?}", b.name);
                }
            }
        }
        assert_eq!(seen.len(), c.regions.len(), "{}", b.name);
    }
}

#[test]
fn transform_regions_and_check_equal_the_public_entry_points() {
    // The transform collects regions once and checks against them; the
    // result must equal collecting and checking the transformed program
    // afresh through the public functions.
    let mut sources: Vec<(String, String)> = ocelot::apps::all_with_extensions()
        .iter()
        .map(|b| (b.name.to_string(), b.annotated_src.to_string()))
        .collect();
    for entry in std::fs::read_dir("examples/programs").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "oc") {
            let src = std::fs::read_to_string(&path).unwrap();
            sources.push((path.display().to_string(), src));
        }
    }
    for seed in 1..=50 {
        sources.push((
            format!("genprog seed {seed}"),
            ocelot_bench::genprog::SourceGen::generate(seed),
        ));
    }
    let mut transformed = 0;
    for (name, src) in &sources {
        let Ok(c) = ocelot_transform(compile(src).unwrap()) else {
            continue;
        };
        transformed += 1;
        let regions = ocelot::core::collect_regions(&c.program).unwrap();
        assert_eq!(
            format!("{:?}", c.regions),
            format!("{regions:?}"),
            "{name}: regions"
        );
        let check = ocelot::core::check_regions(&c.program, &c.policies).unwrap();
        assert_eq!(
            format!("{:?}", c.check),
            format!("{check:?}"),
            "{name}: check report"
        );
    }
    assert!(transformed >= 60, "only {transformed} programs transformed");
}
