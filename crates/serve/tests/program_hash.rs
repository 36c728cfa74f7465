//! `program_hash` hashes the canonical printed form as it is written,
//! without building the string. Its value is part of every verdict and
//! cache key, so it must equal FNV-1a over `program_to_string`.

use ocelot_analysis::incremental::fnv1a;
use ocelot_bench::genprog::SourceGen;
use ocelot_ir::print::program_to_string;
use ocelot_ir::Program;
use ocelot_serve::verify::program_hash;

fn assert_same_hash(what: &str, p: &Program) {
    assert_eq!(
        program_hash(p),
        fnv1a(program_to_string(p).as_bytes()),
        "{what}"
    );
}

/// Both the submitted and the transformed program of every app.
#[test]
fn hash_equals_fnv1a_of_the_rendering_on_every_app() {
    for b in ocelot_apps::all_with_extensions() {
        let p = ocelot_ir::compile(b.annotated_src).expect("app compiles");
        assert_same_hash(b.name, &p);
        let t = ocelot_core::ocelot_transform(p).expect("app transforms");
        assert_same_hash(&format!("{} transformed", b.name), &t.program);
    }
}

#[test]
fn hash_equals_fnv1a_of_the_rendering_on_generated_programs() {
    for seed in 0..200u64 {
        let p = ocelot_ir::compile(&SourceGen::generate(seed)).expect("generated source compiles");
        assert_same_hash(&format!("seed {seed}"), &p);
    }
}
