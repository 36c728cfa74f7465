//! Scope-correct random `.oc` program generation.
//!
//! Moved out of the differential test so every randomized suite shares
//! one grammar: the backend-differential sweep, the lint determinism
//! proptests, and the OC004-vs-execution cross-validation all
//! draw from the same seeded distribution. The generator emits source
//! from the full statement grammar — locals, globals, arrays, sensors,
//! helpers with by-ref parameters, `repeat`/`while`/`if`, manual
//! `atomic` blocks, `fresh`/`consistent` annotations — so the sweeps
//! reach corners the hand-written apps never hit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scope-correct random program source. Seed-deterministic: the same
/// seed always yields byte-identical source.
pub struct SourceGen {
    rng: StdRng,
    out: String,
    locals: Vec<String>,
    input_locals: Vec<String>,
    next_local: usize,
    stmt_budget: usize,
}

const GLOBALS: [&str; 2] = ["g0", "g1"];
const ARRAY: &str = "arr";
const SENSORS: [&str; 2] = ["s0", "s1"];

impl SourceGen {
    /// Generates one program from `seed`. Every program compiles (the
    /// differential suite treats a compile failure as a generator bug).
    pub fn generate(seed: u64) -> String {
        let mut g = SourceGen {
            rng: StdRng::seed_from_u64(seed),
            out: String::new(),
            locals: Vec::new(),
            input_locals: Vec::new(),
            next_local: 0,
            stmt_budget: 18,
        };
        g.out.push_str("sensor s0; sensor s1;\n");
        g.out.push_str("nv g0 = 3; nv g1 = 0; nv arr[4];\n");
        g.out
            .push_str("fn bump(&dst, v) { *dst = *dst + v; return 0; }\n");
        g.out.push_str("fn grab() { let v = in(s0); return v; }\n");
        // A three-deep call chain ending in a sample: when `deep` is
        // called once the chain is statically fixed (pre-resolved
        // path); called twice or more it becomes data-dependent and
        // exercises the dynamic-chain fallback at depth.
        g.out.push_str("fn leaf() { let v = in(s1); return v; }\n");
        g.out
            .push_str("fn mid() { let v = leaf(); return v + 1; }\n");
        g.out
            .push_str("fn deep() { let v = mid(); return v + 1; }\n");
        g.out.push_str("fn main() {\n");
        let n = g.rng.gen_range(4..10usize);
        for _ in 0..n {
            g.stmt(1, false);
        }
        g.out.push_str("out(log, g0 + g1);\n}\n");
        g.out
    }

    fn fresh_local(&mut self) -> String {
        let name = format!("x{}", self.next_local);
        self.next_local += 1;
        self.locals.push(name.clone());
        name
    }

    fn expr(&mut self, depth: usize) -> String {
        let has_locals = !self.locals.is_empty();
        let roll = self.rng.gen_range(0..10u32);
        match roll {
            0 | 1 => format!("{}", self.rng.gen_range(-3..20i64)),
            2 if has_locals => {
                let i = self.rng.gen_range(0..self.locals.len());
                self.locals[i].clone()
            }
            3 => GLOBALS[self.rng.gen_range(0..GLOBALS.len())].to_string(),
            4 => format!("{ARRAY}[{}]", self.rng.gen_range(-1..6i64)),
            _ if depth >= 3 => format!("{}", self.rng.gen_range(0..9i64)),
            5 => format!("(0 - {})", self.expr(depth + 1)),
            _ => {
                let op = ["+", "-", "*", "/", "%", "<", "==", ">"][self.rng.gen_range(0..8usize)];
                format!("({} {} {})", self.expr(depth + 1), op, self.expr(depth + 1))
            }
        }
    }

    fn block(&mut self, depth: usize, in_atomic: bool) {
        let n = self.rng.gen_range(1..4usize);
        for _ in 0..n {
            self.stmt(depth, in_atomic);
        }
    }

    fn stmt(&mut self, depth: usize, in_atomic: bool) {
        if self.stmt_budget == 0 {
            self.out.push_str("skip;\n");
            return;
        }
        self.stmt_budget -= 1;
        let roll = self.rng.gen_range(0..16u32);
        match roll {
            0 | 1 => {
                let e = self.expr(0);
                let l = self.fresh_local();
                self.out.push_str(&format!("let {l} = {e};\n"));
            }
            2 if !self.locals.is_empty() => {
                let l = self.locals[self.rng.gen_range(0..self.locals.len())].clone();
                let e = self.expr(0);
                self.out.push_str(&format!("{l} = {e};\n"));
            }
            3 => {
                let gl = GLOBALS[self.rng.gen_range(0..GLOBALS.len())];
                let e = self.expr(0);
                self.out.push_str(&format!("{gl} = {e};\n"));
            }
            4 => {
                let (i, e) = (self.expr(1), self.expr(0));
                self.out.push_str(&format!("{ARRAY}[{i}] = {e};\n"));
            }
            5 | 6 => {
                let s = SENSORS[self.rng.gen_range(0..SENSORS.len())];
                let l = self.fresh_local();
                self.out.push_str(&format!("let {l} = in({s});\n"));
                self.input_locals.push(l.clone());
                match self.rng.gen_range(0..3u32) {
                    0 => self.out.push_str(&format!("fresh({l});\n")),
                    1 => self.out.push_str(&format!("consistent({l}, 1);\n")),
                    _ => {}
                }
            }
            7 => {
                let e = self.expr(0);
                self.out.push_str(&format!("out(log, {e});\n"));
            }
            8 if depth < 3 => {
                let k = self.rng.gen_range(0..4u32);
                self.out.push_str(&format!("repeat {k} {{\n"));
                self.block(depth + 1, in_atomic);
                self.out.push_str("}\n");
            }
            9 if depth < 3 => {
                let c = self.expr(1);
                self.out.push_str(&format!("if {c} {{\n"));
                self.block(depth + 1, in_atomic);
                self.out.push_str("} else {\n");
                self.block(depth + 1, in_atomic);
                self.out.push_str("}\n");
            }
            10 if depth < 3 => {
                // Usually terminates: counts a global down; bodies that
                // push it back up just hit the shared step limit, which
                // both backends must agree on anyway.
                let gl = GLOBALS[self.rng.gen_range(0..GLOBALS.len())];
                self.out
                    .push_str(&format!("while {gl} > 0 {{\n{gl} = {gl} - 1;\n"));
                self.block(depth + 1, in_atomic);
                self.out.push_str("}\n");
            }
            11 if depth < 3 && !in_atomic => {
                self.out.push_str("atomic {\n");
                self.block(depth + 1, true);
                self.out.push_str("}\n");
            }
            12 => {
                let l = self.fresh_local();
                self.out.push_str(&format!("let {l} = grab();\n"));
                self.input_locals.push(l);
            }
            13 | 14 => {
                // Deep-stack collection: the chain resolution path
                // (static vs dynamic fallback) depends on how many
                // `deep()` sites this particular program emits.
                let l = self.fresh_local();
                self.out.push_str(&format!("let {l} = deep();\n"));
                self.input_locals.push(l.clone());
                match self.rng.gen_range(0..3u32) {
                    0 => self.out.push_str(&format!("fresh({l});\n")),
                    1 => self.out.push_str(&format!("consistent({l}, 1);\n")),
                    _ => {}
                }
            }
            _ => {
                let target = if !self.locals.is_empty() && self.rng.gen_range(0..2u32) == 0 {
                    self.locals[self.rng.gen_range(0..self.locals.len())].clone()
                } else {
                    GLOBALS[self.rng.gen_range(0..GLOBALS.len())].to_string()
                };
                let (e, l) = (self.expr(1), self.fresh_local());
                self.out
                    .push_str(&format!("let {l} = bump(&{target}, {e});\n"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seed_deterministic_and_compiles() {
        for seed in 0..20u64 {
            let a = SourceGen::generate(seed);
            let b = SourceGen::generate(seed);
            assert_eq!(a, b);
            ocelot_ir::compile(&a)
                .unwrap_or_else(|e| panic!("seed {seed}: generator bug: {e}\n{a}"));
        }
    }
}
