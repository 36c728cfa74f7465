//! The programmer-effort model of Tables 3 and 4.
//!
//! Table 3 gives each system's strategy as a lines-of-code formula over
//! program features; Table 4 instantiates the formulas on the six
//! benchmarks. The per-benchmark feature counts live with the apps
//! ([`ocelot_apps::Effort`]); this module implements the formulas.

use ocelot_apps::Effort;

/// LoC to use Ocelot: one annotation per input-generating function plus
/// one per constrained datum (`1*(num inputs) + 1*(data with
/// constraint)`).
pub(crate) fn ocelot_loc(e: &Effort) -> usize {
    e.input_fns + e.fresh_data + e.consistent_data
}

/// LoC to use TICS: each fresh datum needs an expiry, a timestamp
/// alignment, and an expiration check (3 LoC) plus a ~5-line handler;
/// each consistent datum needs an expiry and an alignment (2 LoC); each
/// consistent set needs one expiration check plus one ~5-line handler.
pub(crate) fn tics_loc(e: &Effort) -> usize {
    const HANDLER_LOC: usize = 5;
    e.fresh_data * (3 + HANDLER_LOC) + e.consistent_data * 2 + e.consistent_sets * (1 + HANDLER_LOC)
}

/// LoC to use Samoyed: each atomic function costs a fixed 3 lines
/// (signature + call site) plus one per parameter; functions containing
/// loops also need a scaling rule (3 LoC) and a software fallback
/// (5 LoC).
pub(crate) fn samoyed_loc(e: &Effort) -> usize {
    let fns: usize = e.samoyed_fn_params.iter().map(|p| 3 + p).sum();
    fns + e.samoyed_loops * (3 + 5)
}

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EffortRow {
    /// Benchmark name.
    pub(crate) bench: &'static str,
    /// Ocelot LoC changes.
    pub(crate) ocelot: usize,
    /// TICS LoC changes.
    pub(crate) tics: usize,
    /// Samoyed LoC changes.
    pub(crate) samoyed: usize,
}

/// Computes Table 4 for all benchmarks.
pub(crate) fn table4() -> Vec<EffortRow> {
    ocelot_apps::all()
        .into_iter()
        .map(|b| EffortRow {
            bench: b.name,
            ocelot: ocelot_loc(&b.effort),
            tics: tics_loc(&b.effort),
            samoyed: samoyed_loc(&b.effort),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 4, verbatim.
    const PAPER: &[(&str, usize, usize, usize)] = &[
        ("activity", 5, 20, 18),
        ("cem", 2, 8, 4),
        ("greenhouse", 7, 12, 6),
        ("photo", 2, 8, 12),
        ("send_photo", 4, 8, 4),
        ("tire", 9, 32, 24),
    ];

    #[test]
    fn table4_reproduces_the_paper() {
        let rows = table4();
        for (name, oce, tics, sam) in PAPER {
            let row = rows.iter().find(|r| r.bench == *name).unwrap();
            assert_eq!(row.ocelot, *oce, "{name}: Ocelot");
            assert_eq!(row.tics, *tics, "{name}: TICS");
            assert_eq!(row.samoyed, *sam, "{name}: Samoyed");
        }
    }

    #[test]
    fn ocelot_beats_tics_everywhere_and_samoyed_overall() {
        // In the paper's own Table 4, greenhouse is the one cell where
        // Samoyed (6) edges out Ocelot (7); Ocelot still wins overall.
        let rows = table4();
        for r in &rows {
            assert!(r.ocelot < r.tics, "{}: Ocelot < TICS", r.bench);
        }
        let total_ocelot: usize = rows.iter().map(|r| r.ocelot).sum();
        let total_samoyed: usize = rows.iter().map(|r| r.samoyed).sum();
        assert!(total_ocelot < total_samoyed);
    }
}
