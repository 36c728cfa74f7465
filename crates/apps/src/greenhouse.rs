//! `greenhouse` — a greenhouse climate monitor, from the TICS artifact.
//!
//! Senses temperature and humidity at two stations, derives a combined
//! reading plus a cross-station humidity delta, and drives misting and
//! venting decisions. The three derived values form one temporally-
//! consistent set: a misting decision made from a pre-power-failure
//! temperature and a post-failure humidity is exactly Figure 2's
//! inconsistency.

use crate::{Benchmark, Effort};
use ocelot_hw::sensors::Environment;

/// Annotated source (Ocelot / JIT input).
pub const ANNOTATED: &str = r#"
sensor temp;
sensor hum;

nv vents = 0;
nv mists = 0;
nv tlog[16];
nv hlog[16];
nv logn = 0;

// [IO:fn = read_temp_a, read_temp_b, read_hum_a, read_hum_b]
fn read_temp_a() {
    let raw = in(temp);
    return raw;
}

fn read_temp_b() {
    let raw = in(temp);
    return raw + 1;
}

fn read_hum_a() {
    let raw = in(hum);
    return raw;
}

fn read_hum_b() {
    let raw = in(hum);
    return raw - 1;
}

fn main() {
    let ta = read_temp_a();
    let tb = read_temp_b();
    let t = (ta + tb) / 2;
    consistent(t, 1);
    let ha = read_hum_a();
    let hb = read_hum_b();
    let h = (ha + hb) / 2;
    consistent(h, 1);
    let dh = ha - hb;
    consistent(dh, 1);
    if t > 30 {
        if h < 40 {
            mists = mists + 1;
            out(mist, t, h);
        }
    }
    if t > 33 {
        vents = vents + 1;
        out(vent, t);
    }
    tlog[logn] = t;
    hlog[logn] = h;
    logn = (logn + 1) % 16;
    atomic {
        out(uart, t, h);
    }
}
"#;

/// Atomics-only variant: the sensing phase and the control/log phase are
/// manually wrapped whole, mirroring the statically-placed checkpoints
/// of the TICS original (§7.2).
pub(crate) const ATOMICS_ONLY: &str = r#"
sensor temp;
sensor hum;

nv vents = 0;
nv mists = 0;
nv tlog[16];
nv hlog[16];
nv logn = 0;

fn read_temp_a() {
    let raw = in(temp);
    return raw;
}

fn read_temp_b() {
    let raw = in(temp);
    return raw + 1;
}

fn read_hum_a() {
    let raw = in(hum);
    return raw;
}

fn read_hum_b() {
    let raw = in(hum);
    return raw - 1;
}

fn main() {
    atomic {
        let ta = read_temp_a();
        let tb = read_temp_b();
        let t = (ta + tb) / 2;
        consistent(t, 1);
        let ha = read_hum_a();
        let hb = read_hum_b();
        let h = (ha + hb) / 2;
        consistent(h, 1);
        let dh = ha - hb;
        consistent(dh, 1);
    }
    atomic {
        if t > 30 {
            if h < 40 {
                mists = mists + 1;
                out(mist, t, h);
            }
        }
        if t > 33 {
            vents = vents + 1;
            out(vent, t);
        }
        tlog[logn] = t;
        hlog[logn] = h;
        logn = (logn + 1) % 16;
    }
    atomic {
        out(uart, t, h);
    }
}
"#;

/// The benchmark descriptor.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "greenhouse",
        origin: "TICS",
        sensors: &["hum", "temp"],
        constraints: "Con",
        annotated_src: ANNOTATED,
        atomics_src: ATOMICS_ONLY,
        effort: Effort {
            input_fns: 4,
            fresh_data: 0,
            consistent_data: 3,
            consistent_sets: 1,
            samoyed_fn_params: &[3],
            samoyed_loops: 0,
            manual_regions: 3,
        },
        env_fn: Environment::greenhouse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_core::PolicyKind;

    #[test]
    fn ocelot_region_spans_all_four_reads() {
        let c = ocelot_core::ocelot_transform(benchmark().annotated()).unwrap();
        // One consistent set → one inferred region + the UART guard.
        assert_eq!(c.policy_map.len(), 1);
        assert_eq!(c.regions.len(), 2);
        let ps = &c.policies;
        let set = ps
            .iter()
            .find(|p| matches!(p.kind, PolicyKind::Consistent(1)))
            .unwrap();
        assert_eq!(set.decls.len(), 3, "t, h, dh");
        assert_eq!(set.inputs.len(), 4, "four collections");
    }

    #[test]
    fn environment_matches_channels() {
        let env = benchmark().environment(7);
        assert_ne!(env.sample("temp", 1_500_000), 0);
        assert_ne!(env.sample("hum", 100_000), 0);
    }
}
