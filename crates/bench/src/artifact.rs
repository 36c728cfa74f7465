//! Persistent, versioned result artifacts for the evaluation harness.
//!
//! Every driver (see [`crate::drivers`]) writes one JSON file per run
//! under the `--out` directory (default `target/bench-results/`), named
//! `<driver>.json`. The file is the *single source of truth* for the
//! driver's table or figure: rendering is a pure function of the
//! artifact, so `--replay` re-emits any paper artifact without
//! re-simulating — the workflow the ROADMAP's persistence item asks for.
//!
//! ## Envelope (schema version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "driver": "fig7",
//!   "config": { "runs": 25, "seed": 42 },
//!   "cells": [ { "bench": "activity", "model": "JIT", ... } ]
//! }
//! ```
//!
//! `config` records the sweep parameters for provenance; `cells` holds
//! one object per evaluated cell **in deterministic order** (the job
//! list's order, independent of `--jobs`). Simulation cells carry a
//! `"stats"` member serialized field-for-field from
//! [`ocelot_runtime::stats::Stats`] via its [`Stats::counters`]
//! surface; the full schema, including per-driver cell layouts, is
//! documented in `docs/bench.md`.
//!
//! Readers are strict: an unknown `schema_version`, a missing counter,
//! or an unknown counter name is an error, never a silent default —
//! that strictness is what lets the determinism test compare artifacts
//! byte-for-byte.

use ocelot_runtime::stats::Stats;
use ocelot_telemetry::json::{self, Json, JsonError};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Version written to and required from every artifact.
pub const SCHEMA_VERSION: i128 = 1;

/// One driver's persisted results.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The driver that produced (and can render) this artifact.
    pub driver: String,
    /// Sweep parameters, for provenance and captions.
    pub config: Vec<(String, Json)>,
    /// One object per cell, in deterministic (job-list) order.
    pub cells: Vec<Json>,
}

/// Errors loading, validating, or interpreting artifacts.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure (path included in the message).
    Io(String, io::Error),
    /// Malformed JSON.
    Json(JsonError),
    /// Structurally valid JSON that does not match the schema.
    Schema(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(path, e) => write!(f, "{path}: {e}"),
            ArtifactError::Json(e) => write!(f, "{e}"),
            ArtifactError::Schema(msg) => write!(f, "artifact schema error: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl ArtifactError {
    /// Prefixes the on-disk path onto a parse/validation error, so a
    /// replay diagnostic for a truncated file or an unknown schema
    /// version names the file it came from. I/O errors already carry
    /// their path.
    pub fn in_file(self, path: &Path) -> ArtifactError {
        match self {
            ArtifactError::Io(..) => self,
            ArtifactError::Json(e) => {
                ArtifactError::Schema(format!("{}: malformed JSON: {e}", path.display()))
            }
            ArtifactError::Schema(msg) => {
                ArtifactError::Schema(format!("{}: {msg}", path.display()))
            }
        }
    }
}

impl From<JsonError> for ArtifactError {
    fn from(e: JsonError) -> Self {
        ArtifactError::Json(e)
    }
}

impl Artifact {
    /// Starts an empty artifact for `driver` with the given config.
    pub fn new(driver: &str, config: Vec<(String, Json)>) -> Self {
        Artifact {
            driver: driver.to_string(),
            config,
            cells: Vec::new(),
        }
    }

    /// A config entry, if present.
    pub fn config_get(&self, key: &str) -> Option<&Json> {
        self.config.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A `u64` config entry.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Schema`] when missing or not an integer.
    pub fn config_u64(&self, key: &str) -> Result<u64, ArtifactError> {
        self.config_get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Schema(format!("config `{key}` missing or not a u64")))
    }

    /// The whole artifact as a JSON value (the envelope above).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("driver", Json::str(&self.driver)),
            ("config", Json::Obj(self.config.clone())),
            ("cells", Json::Arr(self.cells.clone())),
        ])
    }

    /// The exact file bytes: rendered JSON with a trailing newline.
    ///
    /// # Errors
    ///
    /// Propagates [`JsonError::NonFiniteFloat`] from the serializer.
    pub fn render(&self) -> Result<String, ArtifactError> {
        Ok(self.to_json().render()?)
    }

    /// Parses and validates an envelope.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Schema`] on version or shape mismatches.
    pub fn from_json(v: &Json) -> Result<Artifact, ArtifactError> {
        let version = v
            .get("schema_version")
            .and_then(Json::as_i64)
            .ok_or_else(|| ArtifactError::Schema("missing schema_version".into()))?;
        if i128::from(version) != SCHEMA_VERSION {
            return Err(ArtifactError::Schema(format!(
                "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
            )));
        }
        let driver = v
            .get("driver")
            .and_then(Json::as_str)
            .ok_or_else(|| ArtifactError::Schema("missing driver".into()))?
            .to_string();
        let config = v
            .get("config")
            .and_then(Json::as_obj)
            .ok_or_else(|| ArtifactError::Schema("missing config object".into()))?
            .to_vec();
        let cells = v
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| ArtifactError::Schema("missing cells array".into()))?
            .to_vec();
        Ok(Artifact {
            driver,
            config,
            cells,
        })
    }

    /// Parses an artifact from file bytes.
    ///
    /// # Errors
    ///
    /// JSON or schema errors as for [`Artifact::from_json`].
    pub fn from_text(text: &str) -> Result<Artifact, ArtifactError> {
        Self::from_json(&json::parse(text)?)
    }

    /// The on-disk path for this driver under `dir`.
    pub fn path_in(dir: &Path, driver: &str) -> PathBuf {
        dir.join(format!("{driver}.json"))
    }

    /// Writes `<dir>/<driver>.json` (creating `dir`) and returns the
    /// path.
    ///
    /// # Errors
    ///
    /// I/O failures, or serializer errors on non-finite floats.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, ArtifactError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ArtifactError::Io(dir.display().to_string(), e))?;
        let path = Self::path_in(dir, &self.driver);
        let text = self.render()?;
        std::fs::write(&path, text)
            .map_err(|e| ArtifactError::Io(path.display().to_string(), e))?;
        Ok(path)
    }

    /// Reads and validates `<dir>/<driver>.json`, checking the `driver`
    /// field matches the file name.
    ///
    /// # Errors
    ///
    /// I/O, JSON, or schema errors (including a driver-name mismatch).
    pub fn load(dir: &Path, driver: &str) -> Result<Artifact, ArtifactError> {
        let path = Self::path_in(dir, driver);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ArtifactError::Io(path.display().to_string(), e))?;
        let a = Self::from_text(&text).map_err(|e| e.in_file(&path))?;
        if a.driver != driver {
            return Err(ArtifactError::Schema(format!(
                "artifact at {} claims driver `{}`, expected `{driver}`",
                path.display(),
                a.driver
            )));
        }
        Ok(a)
    }
}

// The old home of the stats encoder, still imported by `perfbench/`.
pub use ocelot_runtime::stats::stats_to_json;

/// Inverse of [`stats_to_json`], and strict: the object must be exactly
/// the encoding of the counters it carries, so a missing, duplicated,
/// reordered, mistyped, or unknown member is an error.
///
/// # Errors
///
/// [`ArtifactError::Schema`] when `v` is not a canonical stats object.
pub fn stats_from_json(v: &Json) -> Result<Stats, ArtifactError> {
    let mut s = Stats::default();
    for (k, val) in v.as_obj().unwrap_or_default() {
        match (k.as_str(), val.as_obj()) {
            ("breakdown", Some(bd)) => {
                for (bk, bv) in bd {
                    s.breakdown.set_counter(bk, bv.as_u64().unwrap_or_default());
                }
            }
            _ => {
                s.set_counter(k, val.as_u64().unwrap_or_default());
            }
        }
    }
    if stats_to_json(&s) == *v {
        Ok(s)
    } else {
        Err(ArtifactError::Schema(
            "stats is not the canonical encoding of its counters".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> Stats {
        let mut s = Stats::default();
        for (i, (name, _)) in Stats::default().counters().into_iter().enumerate() {
            s.set_counter(name, (i as u64 + 1) * 1_000_003);
        }
        for (i, (name, _)) in s.breakdown.clone().counters().into_iter().enumerate() {
            s.breakdown.set_counter(name, u64::MAX - i as u64);
        }
        s
    }

    #[test]
    fn stats_round_trip_is_exact() {
        let s = sample_stats();
        assert_eq!(stats_from_json(&stats_to_json(&s)).unwrap(), s);
    }

    #[test]
    fn stats_reader_is_strict() {
        let s = sample_stats();
        // Remove a counter → error.
        let Json::Obj(mut pairs) = stats_to_json(&s) else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "on_cycles");
        assert!(stats_from_json(&Json::Obj(pairs.clone())).is_err());
        // Unknown counter → error.
        let mut extra = pairs.clone();
        extra.push(("brand_new_counter".into(), Json::u64(1)));
        extra.push(("on_cycles".into(), Json::u64(1)));
        assert!(stats_from_json(&Json::Obj(extra)).is_err());
        // A duplicated counter must not mask a missing one: here
        // `on_cycles` was removed and `reboots` appears twice, keeping
        // the member count right — still an error.
        let mut duped = pairs.clone();
        duped.push(("reboots".into(), Json::u64(1)));
        assert!(
            stats_from_json(&Json::Obj(duped)).is_err(),
            "duplicate keys must not satisfy the completeness check"
        );
        // Mistyped counter → error.
        assert!(stats_from_json(&Json::obj(vec![("on_cycles", Json::str("9"))])).is_err());
        assert!(stats_from_json(&Json::Null).is_err());
    }

    #[test]
    fn envelope_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("ocelot-artifact-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = Artifact::new(
            "unit_test_driver",
            vec![
                ("runs".into(), Json::u64(25)),
                ("seed".into(), Json::u64(42)),
            ],
        );
        a.cells.push(Json::obj(vec![
            ("bench", Json::str("activity")),
            ("stats", stats_to_json(&sample_stats())),
        ]));
        let path = a.save(&dir).unwrap();
        assert_eq!(path, dir.join("unit_test_driver.json"));
        let b = Artifact::load(&dir, "unit_test_driver").unwrap();
        assert_eq!(a, b);
        assert_eq!(b.config_u64("runs").unwrap(), 25);
        assert!(b.config_u64("missing").is_err());
        // Same bytes both times — the determinism test's foundation.
        assert_eq!(a.render().unwrap(), b.render().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_reader_rejects_drift() {
        // Wrong version.
        let v = json::parse(r#"{"schema_version": 999, "driver": "x", "config": {}, "cells": []}"#)
            .unwrap();
        assert!(matches!(
            Artifact::from_json(&v),
            Err(ArtifactError::Schema(_))
        ));
        // Missing members.
        for bad in [
            r#"{"driver": "x", "config": {}, "cells": []}"#,
            r#"{"schema_version": 1, "config": {}, "cells": []}"#,
            r#"{"schema_version": 1, "driver": "x", "cells": []}"#,
            r#"{"schema_version": 1, "driver": "x", "config": {}}"#,
        ] {
            let v = json::parse(bad).unwrap();
            assert!(Artifact::from_json(&v).is_err(), "{bad}");
        }
        // Driver-name mismatch on load.
        let dir = std::env::temp_dir().join("ocelot-artifact-mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let a = Artifact::new("actual", vec![]);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("claimed.json"), a.render().unwrap()).unwrap();
        assert!(matches!(
            Artifact::load(&dir, "claimed"),
            Err(ArtifactError::Schema(_))
        ));
        assert!(matches!(
            Artifact::load(&dir, "nonexistent"),
            Err(ArtifactError::Io(..))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
