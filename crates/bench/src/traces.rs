//! Raw observation traces as versioned artifacts — the `--traces` flag.
//!
//! A trace artifact is the same schema-version-1 envelope every driver
//! writes ([`crate::artifact`]), persisted next to the driver's result
//! file as `<driver>_traces.json`. Its cells mirror the result
//! artifact's cells one-for-one (same identity members, same order) but
//! carry a `"trace"` member: the committed [`Obs`] log of the cell's
//! machine, event by event. Like every artifact it is replayable —
//! `--replay --traces` re-renders the summary from the file without
//! re-simulating — and the reader is strict, so the determinism suite
//! can compare trace artifacts byte-for-byte.
//!
//! The machine's observation log keeps at most 200 000 committed events
//! per cell (violations always retained), so a pathological `--runs`
//! override truncates the oldest events rather than exhausting memory.

use crate::artifact::{Artifact, ArtifactError};
use ocelot_ir::InstrRef;
use ocelot_runtime::detect::{ViolationEvent, ViolationKind};
use ocelot_runtime::obs::Obs;
use ocelot_telemetry::json::Json;

/// The artifact name (and file stem) of the trace companion of
/// `driver`.
pub fn traces_driver_name(driver: &str) -> String {
    format!("{driver}_traces")
}

fn instr_ref_to_json(r: &InstrRef) -> Json {
    Json::obj(vec![
        ("func", Json::u64(r.func.0 as u64)),
        ("label", Json::u64(r.label.0 as u64)),
    ])
}

fn instr_ref_from_json(v: &Json) -> Result<InstrRef, ArtifactError> {
    let func = v
        .get("func")
        .and_then(Json::as_u64)
        .ok_or_else(|| ArtifactError::Schema("instr ref missing func".into()))?;
    let label = v
        .get("label")
        .and_then(Json::as_u64)
        .ok_or_else(|| ArtifactError::Schema("instr ref missing label".into()))?;
    Ok(InstrRef {
        func: ocelot_ir::FuncId(func as u32),
        label: ocelot_ir::Label(label as u32),
    })
}

fn refs_to_json(refs: &[InstrRef]) -> Json {
    Json::Arr(refs.iter().map(instr_ref_to_json).collect())
}

fn refs_from_json(v: &Json, what: &str) -> Result<Vec<InstrRef>, ArtifactError> {
    v.as_arr()
        .ok_or_else(|| ArtifactError::Schema(format!("{what} is not an array")))?
        .iter()
        .map(instr_ref_from_json)
        .collect()
}

fn i64_to_json(v: i64) -> Json {
    Json::Int(v as i128)
}

fn deps_to_json(deps: &ocelot_runtime::memory::Deps) -> Json {
    Json::Arr(deps.iter().map(|&d| Json::u64(d)).collect())
}

fn deps_from_json(v: &Json) -> Result<ocelot_runtime::memory::Deps, ArtifactError> {
    v.as_arr()
        .ok_or_else(|| ArtifactError::Schema("deps is not an array".into()))?
        .iter()
        .map(|d| {
            d.as_u64()
                .ok_or_else(|| ArtifactError::Schema("dep is not a u64".into()))
        })
        .collect()
}

/// Serializes one committed observation. Every event is a tagged object
/// (`"event"` names the variant); fields mirror [`Obs`] one-for-one.
pub fn obs_to_json(o: &Obs) -> Json {
    match o {
        Obs::Input {
            at,
            tau,
            time_us,
            era,
            sensor,
            value,
            chain,
        } => Json::obj(vec![
            ("event", Json::str("input")),
            ("at", instr_ref_to_json(at)),
            ("tau", Json::u64(*tau)),
            ("time_us", Json::u64(*time_us)),
            ("era", Json::u64(*era)),
            ("sensor", Json::str(sensor)),
            ("value", i64_to_json(*value)),
            ("chain", refs_to_json(chain)),
        ]),
        Obs::Output {
            at,
            tau,
            era,
            channel,
            values,
            deps,
        } => Json::obj(vec![
            ("event", Json::str("output")),
            ("at", instr_ref_to_json(at)),
            ("tau", Json::u64(*tau)),
            ("era", Json::u64(*era)),
            ("channel", Json::str(channel)),
            (
                "values",
                Json::Arr(values.iter().map(|&v| i64_to_json(v)).collect()),
            ),
            ("deps", deps_to_json(deps)),
        ]),
        Obs::Use {
            at,
            tau,
            time_us,
            era,
            deps,
        } => Json::obj(vec![
            ("event", Json::str("use")),
            ("at", instr_ref_to_json(at)),
            ("tau", Json::u64(*tau)),
            ("time_us", Json::u64(*time_us)),
            ("era", Json::u64(*era)),
            ("deps", deps_to_json(deps)),
        ]),
        Obs::Reboot { off_us, ended_era } => Json::obj(vec![
            ("event", Json::str("reboot")),
            ("off_us", Json::u64(*off_us)),
            ("ended_era", Json::u64(*ended_era)),
        ]),
        Obs::Commit { region, tau } => Json::obj(vec![
            ("event", Json::str("commit")),
            ("region", Json::u64(region.0 as u64)),
            ("tau", Json::u64(*tau)),
        ]),
        Obs::Violation(v) => Json::obj(vec![
            ("event", Json::str("violation")),
            ("policy", Json::u64(v.policy.0 as u64)),
            (
                "kind",
                Json::str(match v.kind {
                    ViolationKind::Freshness => "freshness",
                    ViolationKind::Consistency => "consistency",
                }),
            ),
            ("at", instr_ref_to_json(&v.at)),
            ("tau", Json::u64(v.tau)),
            ("era", Json::u64(v.era)),
            ("stale_ops", refs_to_json(&v.stale_ops)),
        ]),
    }
}

fn req<'a>(v: &'a Json, key: &str, ev: &str) -> Result<&'a Json, ArtifactError> {
    v.get(key)
        .ok_or_else(|| ArtifactError::Schema(format!("{ev} event missing `{key}`")))
}

fn req_u64(v: &Json, key: &str, ev: &str) -> Result<u64, ArtifactError> {
    req(v, key, ev)?
        .as_u64()
        .ok_or_else(|| ArtifactError::Schema(format!("{ev} `{key}` is not a u64")))
}

fn req_i64(v: &Json, key: &str, ev: &str) -> Result<i64, ArtifactError> {
    req(v, key, ev)?
        .as_i64()
        .ok_or_else(|| ArtifactError::Schema(format!("{ev} `{key}` is not an i64")))
}

fn req_str<'a>(v: &'a Json, key: &str, ev: &str) -> Result<&'a str, ArtifactError> {
    req(v, key, ev)?
        .as_str()
        .ok_or_else(|| ArtifactError::Schema(format!("{ev} `{key}` is not a string")))
}

/// Inverse of [`obs_to_json`]; strict — an unknown event tag or a
/// missing/mistyped field is an error.
pub fn obs_from_json(v: &Json) -> Result<Obs, ArtifactError> {
    let ev = v
        .get("event")
        .and_then(Json::as_str)
        .ok_or_else(|| ArtifactError::Schema("trace event missing `event` tag".into()))?;
    match ev {
        "input" => Ok(Obs::Input {
            at: instr_ref_from_json(req(v, "at", ev)?)?,
            tau: req_u64(v, "tau", ev)?,
            time_us: req_u64(v, "time_us", ev)?,
            era: req_u64(v, "era", ev)?,
            sensor: req_str(v, "sensor", ev)?.into(),
            value: req_i64(v, "value", ev)?,
            chain: std::sync::Arc::new(refs_from_json(req(v, "chain", ev)?, "chain")?),
        }),
        "output" => Ok(Obs::Output {
            at: instr_ref_from_json(req(v, "at", ev)?)?,
            tau: req_u64(v, "tau", ev)?,
            era: req_u64(v, "era", ev)?,
            channel: req_str(v, "channel", ev)?.into(),
            values: req(v, "values", ev)?
                .as_arr()
                .ok_or_else(|| ArtifactError::Schema("output values is not an array".into()))?
                .iter()
                .map(|x| {
                    x.as_i64()
                        .ok_or_else(|| ArtifactError::Schema("output value not an i64".into()))
                })
                .collect::<Result<_, _>>()?,
            deps: deps_from_json(req(v, "deps", ev)?)?,
        }),
        "use" => Ok(Obs::Use {
            at: instr_ref_from_json(req(v, "at", ev)?)?,
            tau: req_u64(v, "tau", ev)?,
            time_us: req_u64(v, "time_us", ev)?,
            era: req_u64(v, "era", ev)?,
            deps: deps_from_json(req(v, "deps", ev)?)?,
        }),
        "reboot" => Ok(Obs::Reboot {
            off_us: req_u64(v, "off_us", ev)?,
            ended_era: req_u64(v, "ended_era", ev)?,
        }),
        "commit" => Ok(Obs::Commit {
            region: ocelot_ir::RegionId(req_u64(v, "region", ev)? as u32),
            tau: req_u64(v, "tau", ev)?,
        }),
        "violation" => Ok(Obs::Violation(ViolationEvent {
            policy: ocelot_core::PolicyId(req_u64(v, "policy", ev)? as u32),
            kind: match req_str(v, "kind", ev)? {
                "freshness" => ViolationKind::Freshness,
                "consistency" => ViolationKind::Consistency,
                other => {
                    return Err(ArtifactError::Schema(format!(
                        "unknown violation kind `{other}`"
                    )))
                }
            },
            at: instr_ref_from_json(req(v, "at", ev)?)?,
            tau: req_u64(v, "tau", ev)?,
            era: req_u64(v, "era", ev)?,
            stale_ops: refs_from_json(req(v, "stale_ops", ev)?, "stale_ops")?,
        })),
        other => Err(ArtifactError::Schema(format!(
            "unknown trace event `{other}`"
        ))),
    }
}

/// Serializes a whole committed trace.
pub fn trace_to_json(trace: &[Obs]) -> Json {
    Json::Arr(trace.iter().map(obs_to_json).collect())
}

/// Parses a whole committed trace (strict).
///
/// # Errors
///
/// [`ArtifactError::Schema`] on any malformed event.
pub fn trace_from_json(v: &Json) -> Result<Vec<Obs>, ArtifactError> {
    v.as_arr()
        .ok_or_else(|| ArtifactError::Schema("trace is not an array".into()))?
        .iter()
        .map(obs_from_json)
        .collect()
}

/// Renders the human-readable summary of a traces artifact: one line
/// per cell with per-event-kind counts. Pure over the artifact, so
/// `--replay --traces` re-emits it from disk.
///
/// # Errors
///
/// Schema errors for cells without a parseable trace.
pub fn render_traces(a: &Artifact) -> Result<String, ArtifactError> {
    let mut out = format!(
        "Observation traces for `{}` ({} cell(s))\n",
        a.driver.trim_end_matches("_traces"),
        a.cells.len()
    );
    for cell in &a.cells {
        let trace = trace_from_json(
            cell.get("trace")
                .ok_or_else(|| ArtifactError::Schema("cell has no trace member".into()))?,
        )?;
        let mut id = Vec::new();
        for key in ["bench", "model", "scenario"] {
            if let Some(s) = cell.get(key).and_then(Json::as_str) {
                id.push(s.to_string());
            }
        }
        if let Some(seed) = cell.get("seed").and_then(Json::as_u64) {
            id.push(format!("seed {seed}"));
        }
        let mut counts = [0usize; 6];
        for o in &trace {
            let slot = match o {
                Obs::Input { .. } => 0,
                Obs::Output { .. } => 1,
                Obs::Use { .. } => 2,
                Obs::Commit { .. } => 3,
                Obs::Reboot { .. } => 4,
                Obs::Violation(_) => 5,
            };
            counts[slot] += 1;
        }
        out.push_str(&format!(
            "  {:44} {} event(s): {} in, {} out, {} use, {} commit, {} reboot, {} violation\n",
            id.join(" / "),
            trace.len(),
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            counts[4],
            counts[5],
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::{FuncId, Label};

    fn at(f: u32, l: u32) -> InstrRef {
        InstrRef {
            func: FuncId(f),
            label: Label(l),
        }
    }

    fn sample_trace() -> Vec<Obs> {
        vec![
            Obs::Input {
                at: at(0, 1),
                tau: 3,
                time_us: 40,
                era: 1,
                sensor: "mic".into(),
                value: -17,
                chain: std::sync::Arc::new(vec![at(0, 1), at(2, 5)]),
            },
            Obs::Use {
                at: at(2, 9),
                tau: 4,
                time_us: 55,
                era: 1,
                deps: [3u64, 9u64].into_iter().collect(),
            },
            Obs::Output {
                at: at(2, 10),
                tau: 5,
                era: 1,
                channel: "uart".into(),
                values: vec![7, -2, i64::MAX],
                deps: [4u64].into_iter().collect(),
            },
            Obs::Commit {
                region: ocelot_ir::RegionId(2),
                tau: 6,
            },
            Obs::Reboot {
                off_us: 120,
                ended_era: 1,
            },
            Obs::Violation(ViolationEvent {
                policy: ocelot_core::PolicyId(1),
                kind: ViolationKind::Consistency,
                at: at(1, 3),
                tau: 8,
                era: 2,
                stale_ops: vec![at(0, 1)],
            }),
        ]
    }

    #[test]
    fn every_event_kind_round_trips_exactly() {
        let trace = sample_trace();
        let json = trace_to_json(&trace);
        assert_eq!(trace_from_json(&json).unwrap(), trace);
        // And through the serialized text (the on-disk path).
        let text = json.render().unwrap();
        let back = ocelot_telemetry::json::parse(&text).unwrap();
        assert_eq!(trace_from_json(&back).unwrap(), trace);
    }

    #[test]
    fn reader_rejects_unknown_and_malformed_events() {
        assert!(obs_from_json(&Json::obj(vec![("event", Json::str("warp"))])).is_err());
        assert!(obs_from_json(&Json::obj(vec![("no_tag", Json::u64(1))])).is_err());
        // A reboot missing a field.
        assert!(obs_from_json(&Json::obj(vec![
            ("event", Json::str("reboot")),
            ("off_us", Json::u64(9)),
        ]))
        .is_err());
        // A mistyped field.
        assert!(obs_from_json(&Json::obj(vec![
            ("event", Json::str("reboot")),
            ("off_us", Json::str("9")),
            ("ended_era", Json::u64(0)),
        ]))
        .is_err());
    }

    #[test]
    fn summary_counts_events_per_cell() {
        let mut a = Artifact::new("unit_traces", vec![]);
        a.cells.push(Json::obj(vec![
            ("bench", Json::str("mlinfer")),
            ("model", Json::str("Ocelot")),
            ("scenario", Json::str("rf-lab")),
            ("seed", Json::u64(7)),
            ("trace", trace_to_json(&sample_trace())),
        ]));
        let text = render_traces(&a).unwrap();
        assert!(
            text.contains("mlinfer / Ocelot / rf-lab / seed 7"),
            "{text}"
        );
        assert!(
            text.contains("6 event(s): 1 in, 1 out, 1 use, 1 commit, 1 reboot, 1 violation"),
            "{text}"
        );
        let no_trace = Artifact {
            cells: vec![Json::obj(vec![("bench", Json::str("x"))])],
            ..Artifact::new("t", vec![])
        };
        assert!(render_traces(&no_trace).is_err());
    }
}
