//! `cem` — DINO's compressed event monitor: sense a temperature, look
//! the (quantized) value up in a dictionary, and append a compressed
//! code to a log.
//!
//! The freshness constraint is tiny — the sample must be fresh only
//! until it is quantized into a dictionary key — while the dominant work
//! is the dictionary scan and log maintenance. That asymmetry is what
//! makes `cem` the interesting point of Figure 7: Ocelot's inferred
//! region is small and cheap, while an Atomics-only execution pays
//! region entry for every slice of the heavy lookup loop (≈2.5×).

use crate::{Benchmark, Effort};
use ocelot_hw::sensors::{Environment, Signal};

/// Annotated source.
pub const ANNOTATED: &str = r#"
sensor temp;

nv dict[32];
nv dictn = 0;
nv logbuf[32];
nv logn = 0;
nv misses = 0;

// [IO:fn = read_temp]
fn read_temp() {
    let t = in(temp);
    return t;
}

fn find(key) {
    let found = 0 - 1;
    let idx = 0;
    repeat 32 {
        if dict[idx] == key {
            if found < 0 {
                found = idx;
            }
        }
        idx = idx + 1;
    }
    return found;
}

fn insert(key) {
    let slot = dictn % 32;
    dict[slot] = key;
    dictn = dictn + 1;
    return slot;
}

fn main() {
    let t = read_temp();
    fresh(t);
    let key = (t * 3 + 7) % 97;
    let code = find(key);
    if code < 0 {
        let slot = insert(key);
        misses = misses + 1;
        logbuf[logn % 32] = 0 - slot;
    } else {
        logbuf[logn % 32] = code;
    }
    logn = logn + 1;
    atomic {
        out(uart, logn, misses);
    }
}
"#;

/// Atomics-only variant: DINO-style task boundaries slice the whole
/// program — including every iteration of the dictionary scan — into
/// regions, even though none of that code needs re-execution for timing
/// or memory correctness. Each entry pays a volatile checkpoint.
pub(crate) const ATOMICS_ONLY: &str = r#"
sensor temp;

nv dict[32];
nv dictn = 0;
nv logbuf[32];
nv logn = 0;
nv misses = 0;

fn read_temp() {
    let t = in(temp);
    return t;
}

fn main() {
    atomic {
        let t = read_temp();
        fresh(t);
        let key = (t * 3 + 7) % 97;
    }
    let found = 0 - 1;
    let idx = 0;
    repeat 16 {
        atomic {
            if dict[idx] == key {
                if found < 0 {
                    found = idx;
                }
            }
            idx = idx + 1;
            if dict[idx] == key {
                if found < 0 {
                    found = idx;
                }
            }
            idx = idx + 1;
        }
    }
    atomic {
        if found < 0 {
            let slot = dictn % 32;
            dict[slot] = key;
            dictn = dictn + 1;
            misses = misses + 1;
            logbuf[logn % 32] = 0 - slot;
        } else {
            logbuf[logn % 32] = found;
        }
        logn = logn + 1;
    }
    atomic {
        out(uart, logn, misses);
    }
}
"#;

fn environment(seed: u64) -> Environment {
    Environment::new().with(
        "temp",
        Signal::Noisy {
            base: Box::new(Signal::Ramp {
                start: 15,
                end: 42,
                t0_us: 0,
                t1_us: 4_000_000,
            }),
            amplitude: 2,
            seed,
        },
    )
}

/// The benchmark descriptor.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "cem",
        origin: "DINO",
        sensors: &["temp*"],
        constraints: "Fresh",
        annotated_src: ANNOTATED,
        atomics_src: ATOMICS_ONLY,
        effort: Effort {
            input_fns: 1,
            fresh_data: 1,
            consistent_data: 0,
            consistent_sets: 0,
            samoyed_fn_params: &[1],
            samoyed_loops: 0,
            manual_regions: 19,
        },
        env_fn: environment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_core::PolicyKind;

    #[test]
    fn fresh_span_is_tiny() {
        let p = benchmark().annotated();
        ocelot_ir::validate(&p).unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let ps = ocelot_core::build_policies(&p, &taint);
        let fresh = ps.iter().find(|p| p.kind == PolicyKind::Fresh).unwrap();
        assert_eq!(
            fresh.uses.len(),
            1,
            "t is used once (quantization); the heavy lookup uses `key`"
        );
    }

    #[test]
    fn ocelot_region_excludes_the_lookup_loop() {
        let c = ocelot_core::ocelot_transform(benchmark().annotated()).unwrap();
        let inferred = c.policy_map.keys().next().copied().unwrap();
        let info = c.region(inferred).unwrap();
        // The small fresh region touches no dictionary state.
        assert!(
            !info.effects.omega().contains("dict"),
            "dict must stay out of the inferred region's ω: {:?}",
            info.effects
        );
    }

    #[test]
    fn atomics_variant_has_many_regions() {
        let p = benchmark().atomics_only();
        let regions = ocelot_core::collect_regions(&p).unwrap();
        assert!(
            regions.len() >= 4,
            "DINO-style slicing produces several regions, got {}",
            regions.len()
        );
    }
}
