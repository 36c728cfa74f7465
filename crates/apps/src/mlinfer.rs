//! `mlinfer` — fixed-point ML inference over a sample window
//! (extension workload).
//!
//! A tiny two-neuron acoustic-event detector: four microphone samples
//! feed a fixed-point hidden layer and an output squash. The window is
//! one **consistent** set — splicing samples from two power-on
//! intervals feeds the net a waveform no microphone ever produced —
//! and the resulting score must be **fresh** when it gates the alert.

use crate::{Benchmark, Effort};
use ocelot_hw::sensors::{Environment, Signal};

/// Annotated source (Ocelot / JIT input).
pub const ANNOTATED: &str = r#"
sensor mic;

nv events = 0;
nv quiet = 0;
nv scorelog[8];
nv logn = 0;
nv bias = 4;

// [IO:fn = read_mic]
fn read_mic() {
    let v = in(mic);
    return v;
}

fn relu(v) {
    if v < 0 {
        return 0;
    }
    return v;
}

fn squash(v) {
    // Fixed-point soft saturation: v * 64 / (64 + |v|).
    let a = v;
    if a < 0 {
        a = 0 - a;
    }
    return v * 64 / (64 + a);
}

fn main() {
    // One inference window: four samples of the same waveform.
    let s0 = read_mic();
    consistent(s0, 1);
    let s1 = read_mic();
    consistent(s1, 1);
    let s2 = read_mic();
    consistent(s2, 1);
    let s3 = read_mic();
    consistent(s3, 1);
    // Hidden layer, weights in quarters.
    let p0 = (s0 * 3 - s1 + s2 * 2 + s3) / 4 - bias;
    let h0 = relu(p0);
    let p1 = (0 - s0 + s1 * 2 + s2 - s3 * 3) / 4 + bias;
    let h1 = relu(p1);
    // Output neuron.
    let raw = h0 * 2 - h1;
    let score = squash(raw);
    fresh(score);
    if score > 18 {
        events = events + 1;
        out(alert, score);
    } else {
        quiet = quiet + 1;
    }
    scorelog[logn % 8] = score;
    logn = logn + 1;
    // Online bias adaptation over the score history.
    let acc = 0;
    let i = 0;
    repeat 8 {
        acc = acc + scorelog[i];
        i = i + 1;
    }
    let mean = acc / 8;
    if mean > 30 {
        bias = bias + 1;
    }
    if mean < 0 - 30 {
        bias = bias - 1;
    }
    atomic {
        out(uart, events, quiet);
    }
}
"#;

/// Atomics-only variant: window collection + inference + every fresh
/// use in one manual region, bias adaptation in a second, plus the
/// UART guard.
pub(crate) const ATOMICS_ONLY: &str = r#"
sensor mic;

nv events = 0;
nv quiet = 0;
nv scorelog[8];
nv logn = 0;
nv bias = 4;

fn read_mic() {
    let v = in(mic);
    return v;
}

fn relu(v) {
    if v < 0 {
        return 0;
    }
    return v;
}

fn squash(v) {
    let a = v;
    if a < 0 {
        a = 0 - a;
    }
    return v * 64 / (64 + a);
}

fn main() {
    atomic {
        let s0 = read_mic();
        consistent(s0, 1);
        let s1 = read_mic();
        consistent(s1, 1);
        let s2 = read_mic();
        consistent(s2, 1);
        let s3 = read_mic();
        consistent(s3, 1);
        let p0 = (s0 * 3 - s1 + s2 * 2 + s3) / 4 - bias;
        let h0 = relu(p0);
        let p1 = (0 - s0 + s1 * 2 + s2 - s3 * 3) / 4 + bias;
        let h1 = relu(p1);
        let raw = h0 * 2 - h1;
        let score = squash(raw);
        fresh(score);
        if score > 18 {
            events = events + 1;
            out(alert, score);
        } else {
            quiet = quiet + 1;
        }
        scorelog[logn % 8] = score;
        logn = logn + 1;
    }
    atomic {
        let acc = 0;
        let i = 0;
        repeat 8 {
            acc = acc + scorelog[i];
            i = i + 1;
        }
        let mean = acc / 8;
        if mean > 30 {
            bias = bias + 1;
        }
        if mean < 0 - 30 {
            bias = bias - 1;
        }
    }
    atomic {
        out(uart, events, quiet);
    }
}
"#;

/// Default sensed world: acoustic events as short loud bursts over a
/// quiet noise floor.
fn environment(seed: u64) -> Environment {
    Environment::new().with(
        "mic",
        Signal::Noisy {
            base: Box::new(Signal::Burst {
                base: Box::new(Signal::Constant(6)),
                amplitude: 70,
                every_us: 700_000,
                width_us: 90_000,
                seed,
            }),
            amplitude: 5,
            seed: seed ^ 0x111C,
        },
    )
}

/// The benchmark descriptor.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "mlinfer",
        origin: "extension",
        sensors: &["mic"],
        constraints: "Fresh, Con",
        annotated_src: ANNOTATED,
        atomics_src: ATOMICS_ONLY,
        effort: Effort {
            input_fns: 1,
            fresh_data: 1,
            consistent_data: 4,
            consistent_sets: 1,
            samoyed_fn_params: &[1],
            samoyed_loops: 1,
            manual_regions: 3,
        },
        env_fn: environment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_core::PolicyKind;

    #[test]
    fn window_forms_one_consistent_set_with_four_collections() {
        let c = ocelot_core::ocelot_transform(benchmark().annotated()).unwrap();
        assert!(c.check.passes(), "{:?}", c.check.violations);
        let set = c
            .policies
            .iter()
            .find(|p| matches!(p.kind, PolicyKind::Consistent(1)))
            .unwrap();
        assert_eq!(set.decls.len(), 4, "s0..s3");
        assert_eq!(set.inputs.len(), 4, "four collections via one reader");
    }

    #[test]
    fn environment_has_loud_and_quiet_phases() {
        let env = benchmark().environment(11);
        let samples: Vec<i64> = (0..2_000_000u64)
            .step_by(5_000)
            .map(|t| env.sample("mic", t))
            .collect();
        assert!(samples.iter().any(|&v| v > 50), "bursts happen");
        assert!(samples.iter().any(|&v| v < 20), "floor is quiet");
    }
}
